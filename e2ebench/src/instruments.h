// Instruments the benchmark wraps around the program under test, using only
// its public API: a timing relay in front of each Broker's TransportHandler,
// a counting decorator around each Broker's Transport (the shape
// FaultInjectingTransport uses), and a subscriber-side relay in front of
// each Client that timestamps Deliver and SubscribeAck frames.
//
// With tracing off the broker relay and the transport decorator only
// forward. The subscriber relay always decodes Deliver frames: arrival
// times and the delivered (client, event) multiset are what the end-to-end
// metrics and the oracle are made of.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "broker/broker.h"
#include "broker/client.h"
#include "broker/transport.h"
#include "broker/wire.h"
#include "event/codec.h"
#include "harness.h"

namespace e2e {

using namespace gryphon;

inline constexpr std::size_t kFrameSlots = wire::kFrameTypeCount + 1;

/// Time spent inside Transport::send / send_batch on this thread since the
/// enclosing on_frame began, so the relay can report handler self time.
inline thread_local std::int64_t tls_send_ns = 0;

/// Everything a traced run records. Guarded by one mutex: tracing is only
/// on in the traced run, whose overhead is reported.
struct Trace {
  std::atomic<bool> on{false};
  std::mutex mu;

  struct PerBroker {
    std::array<std::vector<double>, kFrameSlots> self_us;  // per frame type
    std::int64_t busy_ns{0};        // on_frame inclusive time
    std::int64_t event_self_ns{0};  // self time of publish + event_forward frames
    std::uint64_t event_frames{0};
  };
  std::vector<PerBroker> brokers;

  std::array<std::uint64_t, kFrameSlots> frames_sent{};
  std::uint64_t bytes_sent{0};
  std::uint64_t send_calls{0};
  std::uint64_t batch_calls{0};
  std::uint64_t batch_frames{0};
  std::int64_t send_ns{0};
  /// Deliver frames in flight: (event id, delivery seq) -> broker send time.
  std::unordered_multimap<std::uint64_t, std::int64_t> deliver_sent;
  std::vector<double> wait_us;

  /// Publish / EventForward frames as a broker received them, for replay
  /// through the codecs and the data plane once the network is quiesced.
  struct Recorded {
    std::size_t broker{0};
    std::vector<std::uint8_t> frame;
  };
  std::vector<Recorded> recorded;
  std::size_t record_cap{20000};

  std::vector<double> publish_call_us;
  std::size_t inproc_queue_max{0};

  void reset(std::size_t broker_count) {
    std::lock_guard lock(mu);
    brokers.assign(broker_count, PerBroker{});
    frames_sent = {};
    bytes_sent = send_calls = batch_calls = batch_frames = 0;
    send_ns = 0;
    deliver_sent.clear();
    wait_us.clear();
    recorded.clear();
    publish_call_us.clear();
    inproc_queue_max = 0;
  }
};

/// Reads the benchmark's event id (the schema's last attribute) from an
/// encoded event.
inline std::uint64_t event_id_of(const SchemaPtr& schema, std::span<const std::uint8_t> bytes) {
  const Event event = decode_event(schema, bytes);
  return static_cast<std::uint64_t>(event.value(schema->attribute_count() - 1).as_int());
}

inline std::uint64_t wait_key(std::uint64_t event, std::uint64_t seq) {
  return (event << 24) ^ seq;
}

/// Counting decorator around a broker's transport.
class CountingTransport final : public Transport {
 public:
  CountingTransport(Transport& inner, Trace& trace, SchemaPtr schema)
      : inner_(inner), trace_(trace), schema_(std::move(schema)) {}

  void send(ConnId conn, std::vector<std::uint8_t> frame) override {
    if (!trace_.on.load(std::memory_order_relaxed)) {
      inner_.send(conn, std::move(frame));
      return;
    }
    const std::int64_t t0 = now_ns();
    note(frame, t0);
    inner_.send(conn, std::move(frame));
    const std::int64_t spent = now_ns() - t0;
    tls_send_ns += spent;
    std::lock_guard lock(trace_.mu);
    trace_.send_ns += spent;
    ++trace_.send_calls;
  }

  void send_batch(ConnId conn, std::vector<std::vector<std::uint8_t>> frames) override {
    if (!trace_.on.load(std::memory_order_relaxed)) {
      inner_.send_batch(conn, std::move(frames));
      return;
    }
    const std::int64_t t0 = now_ns();
    for (const auto& frame : frames) note(frame, t0);
    const std::size_t count = frames.size();
    inner_.send_batch(conn, std::move(frames));
    const std::int64_t spent = now_ns() - t0;
    tls_send_ns += spent;
    std::lock_guard lock(trace_.mu);
    trace_.send_ns += spent;
    ++trace_.send_calls;
    ++trace_.batch_calls;
    trace_.batch_frames += count;
  }

  void close(ConnId conn) override { inner_.close(conn); }

 private:
  void note(const std::vector<std::uint8_t>& frame, std::int64_t t) {
    if (frame.empty()) return;
    const std::size_t type = frame[0] < kFrameSlots ? frame[0] : 0;
    std::uint64_t key = 0;
    const bool deliver = type == static_cast<std::size_t>(wire::FrameType::kDeliver);
    if (deliver) {
      const wire::Deliver d = wire::decode_deliver(frame);
      key = wait_key(event_id_of(schema_, d.event), d.seq);
    }
    std::lock_guard lock(trace_.mu);
    ++trace_.frames_sent[type];
    trace_.bytes_sent += frame.size();
    if (deliver) trace_.deliver_sent.emplace(key, t);
  }

  Transport& inner_;
  Trace& trace_;
  SchemaPtr schema_;
};

/// Timing relay in front of one Broker.
class BrokerRelay final : public TransportHandler {
 public:
  BrokerRelay(std::size_t index, Trace& trace) : index_(index), trace_(trace) {}
  void bind(Broker* broker) { broker_ = broker; }

  void on_connect(ConnId conn) override { broker_->on_connect(conn); }
  void on_disconnect(ConnId conn) override { broker_->on_disconnect(conn); }

  void on_frame(ConnId conn, std::span<const std::uint8_t> frame) override {
    if (!trace_.on.load(std::memory_order_relaxed) || frame.empty()) {
      broker_->on_frame(conn, frame);
      return;
    }
    const std::size_t type = frame[0] < kFrameSlots ? frame[0] : 0;
    const bool event_frame = type == static_cast<std::size_t>(wire::FrameType::kPublish) ||
                             type == static_cast<std::size_t>(wire::FrameType::kEventForward);
    tls_send_ns = 0;
    const std::int64_t t0 = now_ns();
    broker_->on_frame(conn, frame);
    const std::int64_t total = now_ns() - t0;
    const std::int64_t self = total - tls_send_ns;
    std::lock_guard lock(trace_.mu);
    Trace::PerBroker& b = trace_.brokers[index_];
    b.self_us[type].push_back(static_cast<double>(self) / 1e3);
    b.busy_ns += total;
    if (event_frame) {
      b.event_self_ns += self;
      ++b.event_frames;
      if (trace_.recorded.size() < trace_.record_cap) {
        trace_.recorded.push_back({index_, std::vector<std::uint8_t>(frame.begin(), frame.end())});
      }
    }
  }

 private:
  std::size_t index_;
  Trace& trace_;
  Broker* broker_{nullptr};
};

/// Arrival of one Deliver frame at a subscriber's transport handler.
struct Arrival {
  std::uint64_t event{0};
  std::int64_t t_ns{0};
};

/// Shared per-run delivery bookkeeping: closed-loop completion counters
/// (written by subscriber relays, possibly on transport reader threads) and
/// the in-flight count the generator bounds. Counters live in a ring indexed
/// by event id; `capacity` (a power of two) far exceeds the events in
/// flight.
struct Completion {
  explicit Completion(std::size_t capacity)
      : mask(capacity - 1), remaining(new std::atomic<std::uint32_t>[capacity]) {
    for (std::size_t i = 0; i < capacity; ++i) remaining[i].store(0, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t slot(std::uint64_t event) const { return event & mask; }

  std::size_t mask;
  std::unique_ptr<std::atomic<std::uint32_t>[]> remaining;
  std::atomic<std::int64_t> in_flight{0};
  /// Wakes a generator blocked in wait_below() when an event completes, so
  /// it sleeps instead of spinning on a core the TCP workload needs.
  std::mutex mu;
  std::condition_variable completed;

  void arrived(std::uint64_t event) {
    std::atomic<std::uint32_t>& counter = remaining[slot(event)];
    std::uint32_t left = counter.load(std::memory_order_relaxed);
    // Over-delivery (left == 0) is the oracle's business, not completion's.
    while (left > 0 && !counter.compare_exchange_weak(left, left - 1, std::memory_order_acq_rel)) {
    }
    if (left == 1) {
      {
        std::lock_guard lock(mu);
        in_flight.fetch_sub(1, std::memory_order_acq_rel);
      }
      completed.notify_one();
    }
  }

  /// Counts one more event in flight (the predicate wait_below reads only
  /// changes under `mu`).
  void started() {
    std::lock_guard lock(mu);
    in_flight.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Blocks until fewer than `limit` events are in flight or `timeout`
  /// passes.
  void wait_below(std::int64_t limit, std::chrono::microseconds timeout) {
    std::unique_lock lock(mu);
    completed.wait_for(lock, timeout, [&] { return in_flight.load(std::memory_order_acquire) < limit; });
  }
};

/// Relay in front of one subscriber Client.
class SubscriberRelay final : public TransportHandler {
 public:
  static constexpr std::size_t kMaxTokens = 1 << 12;  // subscribe tokens per client

  SubscriberRelay(std::uint32_t index, SchemaPtr schema, Completion& completion, Trace& trace)
      : index_(index),
        schema_(std::move(schema)),
        completion_(completion),
        trace_(trace),
        ack_ns_(kMaxTokens, 0) {
    arrivals_.reserve(1 << 16);
  }
  void bind(Client* client) { client_ = client; }

  void on_connect(ConnId conn) override { client_->on_connect(conn); }
  void on_disconnect(ConnId conn) override { client_->on_disconnect(conn); }

  void on_frame(ConnId conn, std::span<const std::uint8_t> frame) override {
    const std::int64_t t = now_ns();
    const bool traced = trace_.on.load(std::memory_order_relaxed);
    const auto type = frame.empty() ? wire::FrameType{} : wire::peek_type(frame);
    if (type == wire::FrameType::kDeliver) {
      const wire::Deliver d = wire::decode_deliver(frame);
      const std::uint64_t id = event_id_of(schema_, d.event);
      arrivals_.push_back({id, t});
      completion_.arrived(id);
      if (traced) {
        std::lock_guard lock(trace_.mu);
        const auto it = trace_.deliver_sent.find(wait_key(id, d.seq));
        if (it != trace_.deliver_sent.end()) {
          trace_.wait_us.push_back(static_cast<double>(t - it->second) / 1e3);
          trace_.deliver_sent.erase(it);
        }
      }
    }
    client_->on_frame(conn, frame);
    if (type == wire::FrameType::kSubscribeAck) {
      // Recorded after the Client has taken the ack, so a waiter woken here
      // finds the subscription id.
      const wire::SubscribeAck ack = wire::decode_subscribe_ack(frame);
      if (ack.token < kMaxTokens) {
        {
          std::lock_guard lock(ack_mu_);
          ack_ns_[ack.token] = t;
        }
        ack_cv_.notify_all();
      }
    }
    if (type == wire::FrameType::kDeliver && ++since_drain_ >= 1024) {
      since_drain_ = 0;
      (void)client_->take_deliveries();  // the relay keeps what the oracle needs
    }
  }

  [[nodiscard]] std::uint32_t index() const { return index_; }
  /// Arrivals so far; read only once the transports feeding this relay are
  /// quiesced.
  [[nodiscard]] std::vector<Arrival>& arrivals() { return arrivals_; }
  /// SubscribeAck arrival time for a token; 0 until the ack has arrived.
  [[nodiscard]] std::int64_t ack_ns(std::uint64_t token) {
    std::lock_guard lock(ack_mu_);
    return token < kMaxTokens ? ack_ns_[token] : 0;
  }
  /// Blocks until the SubscribeAck for `token` has arrived (and the Client
  /// has recorded it) or `timeout` passes; true if it arrived.
  bool wait_ack(std::uint64_t token, std::chrono::milliseconds timeout) {
    if (token >= kMaxTokens) return false;
    std::unique_lock lock(ack_mu_);
    return ack_cv_.wait_for(lock, timeout, [&] { return ack_ns_[token] != 0; });
  }

 private:
  std::uint32_t index_;
  SchemaPtr schema_;
  Completion& completion_;
  Trace& trace_;
  Client* client_{nullptr};
  std::vector<Arrival> arrivals_;
  std::mutex ack_mu_;
  std::condition_variable ack_cv_;
  std::vector<std::int64_t> ack_ns_;  // guarded by ack_mu_
  std::size_t since_drain_{0};
};

}  // namespace e2e
