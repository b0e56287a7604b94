#include "broker/replication.h"

namespace gryphon::replication {

namespace {

void put_broker(Encoder& enc, BrokerId b) {
  enc.put_u32(static_cast<std::uint32_t>(b.value));
}

BrokerId get_broker(Decoder& dec) {
  return BrokerId{static_cast<BrokerId::rep_type>(dec.get_u32())};
}

void put_space(Encoder& enc, SpaceId space) {
  enc.put_u16(static_cast<std::uint16_t>(space.value));
}

SpaceId get_space(Decoder& dec) {
  return SpaceId{static_cast<SpaceId::rep_type>(dec.get_u16())};
}

void put_log(Encoder& enc, const LogImage& log) {
  enc.put_u64(log.next_seq);
  enc.put_u64(log.acked);
  enc.put_u64(log.truncated_through);
  enc.put_u64(log.entries.size());
  for (const EventLog::Entry& entry : log.entries) {
    enc.put_u64(entry.seq);
    put_space(enc, entry.space);
    put_broker(enc, entry.origin);
    enc.put_bytes(entry.event);
  }
}

LogImage get_log(Decoder& dec) {
  LogImage log;
  log.next_seq = dec.get_u64();
  log.acked = dec.get_u64();
  log.truncated_through = dec.get_u64();
  const std::uint64_t count = dec.get_u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    EventLog::Entry entry;
    entry.seq = dec.get_u64();
    entry.space = get_space(dec);
    entry.origin = get_broker(dec);
    entry.event = dec.get_bytes();
    log.entries.push_back(std::move(entry));
  }
  return log;
}

}  // namespace

std::vector<std::uint8_t> encode_update(const Update& update) {
  Encoder enc;
  enc.put_u8(static_cast<std::uint8_t>(update.kind));
  switch (update.kind) {
    case UpdateKind::kSubAdd:
      enc.put_i64(update.id.value);
      put_broker(enc, update.owner);
      put_space(enc, update.space);
      enc.put_string(update.client);
      enc.put_bytes(update.payload);
      break;
    case UpdateKind::kSubRemove:
    case UpdateKind::kTombstone:
      enc.put_i64(update.id.value);
      break;
    case UpdateKind::kClientDeliver:
      enc.put_string(update.client);
      enc.put_u64(update.seq);
      put_space(enc, update.space);
      enc.put_bytes(update.payload);
      break;
    case UpdateKind::kClientAck:
      enc.put_string(update.client);
      enc.put_u64(update.seq);
      break;
    case UpdateKind::kClientTruncate:
      enc.put_string(update.client);
      enc.put_u64(update.seq);
      enc.put_u64(update.truncated_through);
      break;
    case UpdateKind::kLinkForward:
      put_broker(enc, update.peer);
      enc.put_u64(update.seq);
      put_broker(enc, update.origin);
      put_space(enc, update.space);
      enc.put_bytes(update.payload);
      break;
    case UpdateKind::kLinkAck:
      put_broker(enc, update.peer);
      enc.put_u64(update.seq);
      break;
    case UpdateKind::kLinkTruncate:
      put_broker(enc, update.peer);
      enc.put_u64(update.seq);
      enc.put_u64(update.truncated_through);
      break;
    case UpdateKind::kLinkInSeq:
      put_broker(enc, update.peer);
      enc.put_u64(update.epoch);
      enc.put_u64(update.seq);
      break;
    case UpdateKind::kLinkDead:
      put_broker(enc, update.peer);
      enc.put_u8(update.dead ? 1 : 0);
      break;
  }
  return enc.take();
}

Update decode_update(std::span<const std::uint8_t> buffer) {
  Decoder dec(buffer);
  Update update;
  const std::uint8_t kind = dec.get_u8();
  if (kind < static_cast<std::uint8_t>(UpdateKind::kSubAdd) ||
      kind > static_cast<std::uint8_t>(UpdateKind::kLinkDead)) {
    throw CodecError("replication: unknown update kind " + std::to_string(kind));
  }
  update.kind = static_cast<UpdateKind>(kind);
  switch (update.kind) {
    case UpdateKind::kSubAdd:
      update.id = SubscriptionId{dec.get_i64()};
      update.owner = get_broker(dec);
      update.space = get_space(dec);
      update.client = dec.get_string_view();
      update.payload = dec.get_bytes_view();
      break;
    case UpdateKind::kSubRemove:
    case UpdateKind::kTombstone:
      update.id = SubscriptionId{dec.get_i64()};
      break;
    case UpdateKind::kClientDeliver:
      update.client = dec.get_string_view();
      update.seq = dec.get_u64();
      update.space = get_space(dec);
      update.payload = dec.get_bytes_view();
      break;
    case UpdateKind::kClientAck:
      update.client = dec.get_string_view();
      update.seq = dec.get_u64();
      break;
    case UpdateKind::kClientTruncate:
      update.client = dec.get_string_view();
      update.seq = dec.get_u64();
      update.truncated_through = dec.get_u64();
      break;
    case UpdateKind::kLinkForward:
      update.peer = get_broker(dec);
      update.seq = dec.get_u64();
      update.origin = get_broker(dec);
      update.space = get_space(dec);
      update.payload = dec.get_bytes_view();
      break;
    case UpdateKind::kLinkAck:
      update.peer = get_broker(dec);
      update.seq = dec.get_u64();
      break;
    case UpdateKind::kLinkTruncate:
      update.peer = get_broker(dec);
      update.seq = dec.get_u64();
      update.truncated_through = dec.get_u64();
      break;
    case UpdateKind::kLinkInSeq:
      update.peer = get_broker(dec);
      update.epoch = dec.get_u64();
      update.seq = dec.get_u64();
      break;
    case UpdateKind::kLinkDead:
      update.peer = get_broker(dec);
      update.dead = dec.get_u8() != 0;
      break;
  }
  return update;
}

std::vector<std::uint8_t> encode_snapshot(const SnapshotImage& image) {
  Encoder enc;
  enc.put_u64(image.session_epoch);
  enc.put_u64(image.next_sub_counter);
  enc.put_u64(image.subscriptions.size());
  for (const SubImage& sub : image.subscriptions) {
    enc.put_i64(sub.id.value);
    put_broker(enc, sub.owner);
    put_space(enc, sub.space);
    enc.put_string(sub.client);
    enc.put_bytes(sub.subscription);
  }
  enc.put_u64(image.tombstones.size());
  for (const SubscriptionId id : image.tombstones) enc.put_i64(id.value);
  enc.put_u64(image.links.size());
  for (const LinkImage& link : image.links) {
    put_broker(enc, link.peer);
    enc.put_u8(link.dead ? 1 : 0);
    enc.put_u64(link.in_epoch);
    enc.put_u64(link.in_seq);
    put_log(enc, link.out_log);
  }
  enc.put_u64(image.clients.size());
  for (const ClientImage& client : image.clients) {
    enc.put_string(client.name);
    put_log(enc, client.log);
  }
  return enc.take();
}

SnapshotImage decode_snapshot(std::span<const std::uint8_t> buffer) {
  Decoder dec(buffer);
  SnapshotImage image;
  image.session_epoch = dec.get_u64();
  image.next_sub_counter = dec.get_u64();
  const std::uint64_t subs = dec.get_u64();
  for (std::uint64_t i = 0; i < subs; ++i) {
    SubImage sub;
    sub.id = SubscriptionId{dec.get_i64()};
    sub.owner = get_broker(dec);
    sub.space = get_space(dec);
    sub.client = dec.get_string();
    sub.subscription = dec.get_bytes();
    image.subscriptions.push_back(std::move(sub));
  }
  const std::uint64_t tombs = dec.get_u64();
  for (std::uint64_t i = 0; i < tombs; ++i) {
    image.tombstones.push_back(SubscriptionId{dec.get_i64()});
  }
  const std::uint64_t links = dec.get_u64();
  for (std::uint64_t i = 0; i < links; ++i) {
    LinkImage link;
    link.peer = get_broker(dec);
    link.dead = dec.get_u8() != 0;
    link.in_epoch = dec.get_u64();
    link.in_seq = dec.get_u64();
    link.out_log = get_log(dec);
    image.links.push_back(std::move(link));
  }
  const std::uint64_t clients = dec.get_u64();
  for (std::uint64_t i = 0; i < clients; ++i) {
    ClientImage client;
    client.name = dec.get_string();
    client.log = get_log(dec);
    image.clients.push_back(std::move(client));
  }
  return image;
}

}  // namespace gryphon::replication
