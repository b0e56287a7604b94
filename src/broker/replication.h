// Broker state replication (the Clone pattern): every piece of durable
// broker state — the subscription registry (covering-parked replicas
// included), unsubscribe tombstones, per-neighbor link-session counters and
// outbound forward logs, and per-client EventLog delivery windows — is
// expressed as a keyed, sequence-numbered stream of Update records with
// periodic full SnapshotImages. A primary broker appends every durable
// mutation to the stream and ships it over a reliable session
// (wire::StateUpdate / wire::StateSnapshot, cumulative wire::ReplAck) to a
// hot standby, which applies updates strictly in order; on primary death
// the standby is promoted and assumes the primary's spanning-tree role and
// identity. See docs/fault-tolerance.md § Replication.
//
// This header is the codec layer only: the record types and their binary
// encodings. The streaming/apply/promotion state machines live in
// Broker (src/broker/broker.cpp).
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "broker/event_log.h"
#include "common/ids.h"
#include "event/codec.h"

namespace gryphon::replication {

/// What one Update mutates. The key space mirrors the broker's durable
/// state: subscriptions by id, client logs by hello name, link sessions by
/// neighbor broker id.
enum class UpdateKind : std::uint8_t {
  kSubAdd = 1,         // registry insert (local or propagated replica)
  kSubRemove = 2,      // registry erase
  kTombstone = 3,      // unsubscribe tombstone recorded
  kClientDeliver = 4,  // client log append (one Deliver frame logged)
  kClientAck = 5,      // client cumulative ack consumed
  kClientTruncate = 6, // client log retention truncation
  kLinkForward = 7,    // link out-log append (one EventForward logged)
  kLinkAck = 8,        // link cumulative BrokerAck consumed
  kLinkTruncate = 9,   // link out-log retention truncation
  kLinkInSeq = 10,     // inbound forward consumed: receive cursor moved
  kLinkDead = 11,      // link declared dead (out-log purged) or revived
};

/// One durable-state mutation. A tagged union flattened into one struct:
/// which fields are meaningful depends on `kind` (see the encoder — fields
/// not listed for a kind are neither encoded nor decoded). `client` and
/// `payload` borrow: from the caller's state when encoding (so building an
/// Update copies nothing), from the decoded buffer after decode_update.
struct Update {
  UpdateKind kind{UpdateKind::kSubAdd};
  SubscriptionId id{};     // kSubAdd / kSubRemove / kTombstone
  BrokerId owner{};        // kSubAdd
  BrokerId peer{};         // every kLink* kind: the neighbor
  BrokerId origin{};       // kLinkForward: spanning-tree root of the event
  std::string_view client; // every kClient* kind: the hello name; kSubAdd:
                           // the local subscriber (empty for remote replicas)
  SpaceId space{0};        // kSubAdd / kClientDeliver / kLinkForward
  std::uint64_t seq{0};    // deliver/forward/ack sequence; kLinkInSeq: in_seq;
                           // k*Truncate: drop-through (last seq dropped)
  std::uint64_t epoch{0};  // kLinkInSeq: the peer epoch in_seq counts under
  std::uint64_t truncated_through{0};  // k*Truncate: adopted truncation bound
  bool dead{false};        // kLinkDead
  std::span<const std::uint8_t> payload;  // encoded Subscription (kSubAdd) or
                                          // Event (kClientDeliver / kLinkForward)
};

/// A replicated EventLog: counters plus the retained (unacknowledged)
/// entries. Entry timestamps are not replicated — the applying side
/// re-stamps with its own clock so its retention collector stays sane.
struct LogImage {
  std::uint64_t next_seq{1};
  std::uint64_t acked{0};
  std::uint64_t truncated_through{0};
  std::deque<EventLog::Entry> entries;
};

struct SubImage {
  SubscriptionId id{};
  BrokerId owner{};
  SpaceId space{0};
  std::string client;  // local subscriber name; empty for remote replicas
  std::vector<std::uint8_t> subscription;
};

struct LinkImage {
  BrokerId peer{};
  bool dead{false};
  std::uint64_t in_epoch{0};
  std::uint64_t in_seq{0};
  LogImage out_log;
};

struct ClientImage {
  std::string name;
  LogImage log;
};

/// The full durable-state image a StateSnapshot carries. `session_epoch`
/// is included so a promoted standby continues the primary's link sessions
/// seamlessly: identity takeover includes the epoch (the primary is dead,
/// so the incarnation cannot be ambiguous).
struct SnapshotImage {
  std::uint64_t session_epoch{0};
  std::uint64_t next_sub_counter{1};
  std::vector<SubImage> subscriptions;
  std::vector<SubscriptionId> tombstones;  // oldest first (FIFO order)
  std::vector<LinkImage> links;
  std::vector<ClientImage> clients;
};

/// Binary codecs, same conventions as the wire layer (event/codec.h
/// primitives, little-endian). Decoders throw CodecError on malformed
/// input, including unknown update kinds.
std::vector<std::uint8_t> encode_update(const Update& update);
/// The result borrows from `buffer`, which must outlive it.
Update decode_update(std::span<const std::uint8_t> buffer);

std::vector<std::uint8_t> encode_snapshot(const SnapshotImage& image);
SnapshotImage decode_snapshot(std::span<const std::uint8_t> buffer);

}  // namespace gryphon::replication
