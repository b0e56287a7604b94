// End-to-end, layer-attributed benchmark of live broker networks.
//
//   e2e_bench --workload <pair-tcp-fanout|line3-churn>
//             --seed <n> --seconds <s> --trace <0|1> [--inject <kind>]
//
// Each run builds a real Broker network through the public API (Client
// publish/subscribe over InProcNetwork or TcpTransport), sets it up several
// times (set-up time is reported as the median), then alternates in rounds:
//   * a closed-loop saturation phase: publishers keep a fixed window of
//     events in flight; throughput counts events whose oracle-expected
//     deliveries have all arrived (events expecting none finish when the
//     network drains at the end of the phase);
//   * an open-loop phase at a fixed offered rate: every sample is timed from
//     the event's scheduled send time to the Deliver frame's arrival at the
//     subscriber's transport handler (line3-churn runs subscribe/unsubscribe
//     churn beside it);
// and after each phase compares every delivered (client, event) pair with a
// NaiveMatcher oracle. Any missing, duplicate or spurious delivery fails the
// run.
//
// With --trace 1 the run repeats both phases with the instruments of
// instruments.h recording, replays the recorded frames through the public
// codecs and BrokerCore::dispatch, runs a simulator point, and prints the
// per-layer metrics instead. --inject adds one missing, duplicate or
// spurious delivery to the delivered set before the oracle runs, to show
// the gate rejects it.

#include <sys/prctl.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "broker/client.h"
#include "broker/inproc_transport.h"
#include "broker/tcp_transport.h"
#include "harness.h"
#include "instruments.h"
#include "matching/naive_matcher.h"
#include "sim/simulation.h"
#include "topology/builders.h"
#include "workload/generators.h"

namespace e2e {
namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
/// Completion counters are indexed by event id modulo this. Every phase
/// drains before the next starts, so the events in flight never exceed one
/// phase's (at most ~27 000: a 2.25 s open-loop phase at 12 000/s).
constexpr std::size_t kCompletionSlots = 1u << 16;
/// Throughput and latency percentiles are taken per window of this length
/// and summarised by the interquartile mean over windows (harness.h): one
/// stall in a run moves one window, not the metric.
constexpr double kWindowSeconds = 0.25;

// ---------------------------------------------------------------------------
// Workload parameters. The open-loop rates and the churn rate are fixed here
// once, at about a tenth to an eighth of the saturation throughput the
// reference host sustains (lower rates keep the tail off the knee of the
// queueing curve, where host speed drift moves it most), and never derived
// from the run being measured.

struct Params {
  std::string name;
  bool tcp{false};
  std::size_t match_threads{0};
  std::size_t setup_repeats{5};
  std::size_t window{64};             // closed-loop events in flight
  double open_loop_rate_eps{0};       // open-loop offered rate
  double churn_rate_ops{0};           // subscribe/unsubscribe ops per second
  std::size_t churn_pool{0};          // churn subscriptions alive at once
};

Params params_for(const std::string& workload) {
  Params p;
  p.name = workload;
  if (workload == "pair-tcp-fanout") {
    p.tcp = true;
    p.match_threads = 2;
    p.window = 256;
    p.open_loop_rate_eps = 3000;
    p.setup_repeats = 9;  // a set-up takes ~45 ms here
  } else if (workload == "line3-churn") {
    p.open_loop_rate_eps = 12000;
    p.churn_rate_ops = 12;
    p.churn_pool = 30;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return p;
}

struct Cli {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{0};  // required
  bool trace{false};
  std::string inject;
  std::string git_commit{"unknown"};
};

// ---------------------------------------------------------------------------
// Generated inputs. Every workload's schema carries the benchmark's event id
// as its last attribute ("eid", no domain, never tested by a subscription),
// so a Deliver frame names the event it carries.

SchemaPtr with_event_id(const SchemaPtr& base) {
  std::vector<Attribute> attributes = base->attributes();
  attributes.push_back(Attribute{"eid", AttributeType::kInt, {}});
  return make_schema(base->name(), std::move(attributes));
}

Subscription widen(const SchemaPtr& schema, const Subscription& s) {
  std::vector<AttributeTest> tests = s.tests();
  tests.push_back(AttributeTest::dont_care());
  return Subscription(schema, std::move(tests));
}

/// Draws from `generator` until a subscription has at least `min_tests`
/// attribute tests. Broad subscriptions are rare but each matches a large
/// share of events, so a few of them would decide a seed's delivery count;
/// the floor keeps every seed's selectivity close to the others'.
Subscription selective(const SubscriptionGenerator& generator, Rng& rng, std::size_t min_tests) {
  for (;;) {
    Subscription s = generator.generate(rng);
    const auto stars = static_cast<std::size_t>(std::count(s.tests().begin(), s.tests().end(), AttributeTest::dont_care()));
    if (s.tests().size() - stars >= min_tests) return s;
  }
}

struct Template {
  std::vector<Value> values;  // without the event id
  std::size_t publisher{0};
  std::vector<std::uint32_t> expected;  // clients the standing set delivers to
};

struct SubSpec {
  std::uint32_t client{0};
  Subscription sub;
};

struct Inputs {
  SchemaPtr schema;
  BrokerNetwork topo;
  std::vector<int> subscriber_home;  // per subscriber client
  std::vector<int> publisher_home;   // per publisher client
  std::vector<SubSpec> standing;     // loaded at set-up
  std::vector<Template> templates;   // event pool, round-robin over publishers
  std::vector<SubSpec> churn;        // line3-churn: subscriptions churned in
};

Event make_event(const Inputs& in, std::size_t tmpl, std::uint64_t id) {
  std::vector<Value> values = in.templates[tmpl].values;
  values.emplace_back(static_cast<std::int64_t>(id));
  return Event(in.schema, std::move(values));
}

/// Fills each template's expected client set from a NaiveMatcher oracle
/// over the standing subscriptions.
void compute_expected(Inputs& in) {
  NaiveMatcher oracle;
  for (std::size_t i = 0; i < in.standing.size(); ++i) {
    oracle.add(SubscriptionId{static_cast<std::int64_t>(i)}, in.standing[i].sub);
  }
  for (std::size_t t = 0; t < in.templates.size(); ++t) {
    const MatchResult r = oracle.match(make_event(in, t, 0));
    std::vector<std::uint32_t>& clients = in.templates[t].expected;
    for (const SubscriptionId id : r.ids) {
      clients.push_back(in.standing[static_cast<std::size_t>(id.value)].client);
    }
    std::sort(clients.begin(), clients.end());
    clients.erase(std::unique(clients.begin(), clients.end()), clients.end());
  }
}

/// pair-tcp-fanout: two brokers; publisher and one subscriber on broker 0,
/// two subscribers on broker 1. Each subscriber holds broad range
/// predicates over `k` plus one catch-all, so every event reaches all three
/// and crosses the link once. Payloads mix 16 B and 4 KiB strings.
Inputs pair_inputs(std::uint64_t seed) {
  Inputs in;
  const SchemaPtr base = make_schema(
      "feed", {Attribute{"k", AttributeType::kInt, {}}, Attribute{"body", AttributeType::kString, {}}});
  in.schema = with_event_id(base);
  in.topo = make_line(2, 10, 0, 1);
  in.subscriber_home = {0, 1, 1};
  in.publisher_home = {0};
  Rng rng(seed);
  constexpr std::size_t kSubsPerClient = 100;
  for (std::uint32_t c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < kSubsPerClient; ++i) {
      const auto lo = static_cast<std::int64_t>(rng.below(100));
      const auto hi = lo + 10 + static_cast<std::int64_t>(rng.below(60));
      in.standing.push_back({c, Subscription(in.schema, {AttributeTest::between(Value(lo), Value(hi)),
                                                         AttributeTest::dont_care(),
                                                         AttributeTest::dont_care()})});
    }
    in.standing.push_back({c, Subscription(in.schema, {AttributeTest::greater_than(Value(std::int64_t{0}), true),
                                                       AttributeTest::dont_care(),
                                                       AttributeTest::dont_care()})});
  }
  constexpr std::size_t kTemplates = 512;
  for (std::size_t t = 0; t < kTemplates; ++t) {
    const std::size_t size = rng.chance(0.25) ? 4096 : 16;
    std::string body(size, 'x');
    for (char& ch : body) ch = static_cast<char>('a' + rng.below(26));
    in.templates.push_back(
        {{Value(static_cast<std::int64_t>(rng.below(100))), Value(std::move(body))}, 0, {}});
  }
  compute_expected(in);
  return in;
}

/// line3-churn: a 3-broker line with four subscriber clients and one
/// publisher per broker, a standing population of selective synthetic
/// subscriptions, and a pool of further subscriptions churned in and out
/// during the open-loop phase.
Inputs line3_inputs(std::uint64_t seed) {
  Inputs in;
  const SchemaPtr base = make_synthetic_schema(10, 5);
  in.schema = with_event_id(base);
  in.topo = make_line(3, 10, 0, 1);
  Rng rng(seed);
  const SubscriptionGenerator subs(base, SubscriptionWorkloadConfig{0.98, 0.85, 1.0});
  const EventGenerator events(base, 1.0);
  for (int b = 0; b < 3; ++b) {
    for (int c = 0; c < 4; ++c) in.subscriber_home.push_back(b);
    in.publisher_home.push_back(b);
  }
  constexpr std::size_t kStanding = 600;
  constexpr std::size_t kChurnPool = 4096;
  constexpr std::size_t kMinTests = 4;
  const auto clients = static_cast<std::uint32_t>(in.subscriber_home.size());
  for (std::size_t i = 0; i < kStanding; ++i) {
    in.standing.push_back({static_cast<std::uint32_t>(i % clients), widen(in.schema, selective(subs, rng, kMinTests))});
  }
  for (std::size_t i = 0; i < kChurnPool; ++i) {
    in.churn.push_back({static_cast<std::uint32_t>(rng.below(clients)), widen(in.schema, selective(subs, rng, kMinTests))});
  }
  constexpr std::size_t kTemplates = 1536;
  for (std::size_t t = 0; t < kTemplates; ++t) {
    in.templates.push_back({events.generate(rng).values(), t % 3, {}});
  }
  compute_expected(in);
  return in;
}

// ---------------------------------------------------------------------------
// Live networks.

class Bed {
 public:
  virtual ~Bed() = default;
  /// Delivers up to `limit` queued frames (in-proc); 0 for TCP.
  virtual std::size_t pump_some(std::size_t limit) = 0;
  /// Pumps to quiescence (in-proc); no-op for TCP.
  virtual void pump_all() = 0;
  [[nodiscard]] virtual std::size_t pending() const = 0;
  [[nodiscard]] virtual bool inproc() const = 0;

  std::vector<Broker*> brokers;
  std::vector<Client*> subscribers;
  std::vector<SubscriberRelay*> relays;
  std::vector<Client*> publishers;
};

class InProcBed final : public Bed {
 public:
  InProcBed(const Inputs& in, const Params& p, Trace& trace, Completion& completion) {
    Broker::Options options;
    options.match_threads = p.match_threads;
    const std::size_t n = in.topo.broker_count();
    for (std::size_t b = 0; b < n; ++b) {
      InProcEndpoint* ep = net_.create_endpoint(broker_name(b));
      transports_.push_back(std::make_unique<CountingTransport>(*ep, trace, in.schema));
      broker_relays_.push_back(std::make_unique<BrokerRelay>(b, trace));
      brokers_.push_back(std::make_unique<Broker>(BrokerId{static_cast<int>(b)}, in.topo,
                                                  std::vector<SchemaPtr>{in.schema},
                                                  *transports_.back(), options));
      broker_relays_.back()->bind(brokers_.back().get());
      ep->set_handler(broker_relays_.back().get());
      brokers.push_back(brokers_.back().get());
    }
    for (std::size_t a = 0; a < n; ++a) {
      for (const auto& port : in.topo.ports(BrokerId{static_cast<int>(a)})) {
        if (port.kind != BrokerNetwork::PortKind::kBroker || static_cast<std::size_t>(port.peer_broker.value) <= a) {
          continue;
        }
        const ConnId conn = net_.connect(broker_name(a), broker_name(static_cast<std::size_t>(port.peer_broker.value)));
        brokers_[a]->attach_broker_link(conn, port.peer_broker);
      }
    }
    net_.pump();
    for (std::size_t c = 0; c < in.subscriber_home.size(); ++c) {
      const std::string name = std::string("s") + std::to_string(c);
      InProcEndpoint* ep = net_.create_endpoint(name);
      clients_.push_back(std::make_unique<Client>(name, *ep, std::vector<SchemaPtr>{in.schema}));
      sub_relays_.push_back(std::make_unique<SubscriberRelay>(static_cast<std::uint32_t>(c), in.schema,
                                                              completion, trace));
      sub_relays_.back()->bind(clients_.back().get());
      ep->set_handler(sub_relays_.back().get());
      clients_.back()->bind(net_.connect(name, broker_name(static_cast<std::size_t>(in.subscriber_home[c]))));
      subscribers.push_back(clients_.back().get());
      relays.push_back(sub_relays_.back().get());
    }
    for (std::size_t c = 0; c < in.publisher_home.size(); ++c) {
      const std::string name = std::string("p") + std::to_string(c);
      InProcEndpoint* ep = net_.create_endpoint(name);
      clients_.push_back(std::make_unique<Client>(name, *ep, std::vector<SchemaPtr>{in.schema}));
      ep->set_handler(clients_.back().get());
      clients_.back()->bind(net_.connect(name, broker_name(static_cast<std::size_t>(in.publisher_home[c]))));
      publishers.push_back(clients_.back().get());
    }
    net_.pump();
  }

  std::size_t pump_some(std::size_t limit) override { return net_.pump_some(limit); }
  void pump_all() override { net_.pump(); }
  [[nodiscard]] std::size_t pending() const override { return net_.pending(); }
  [[nodiscard]] bool inproc() const override { return true; }

 private:
  static std::string broker_name(std::size_t b) { return std::string("b") + std::to_string(b); }

  InProcNetwork net_;
  std::vector<std::unique_ptr<CountingTransport>> transports_;
  std::vector<std::unique_ptr<BrokerRelay>> broker_relays_;
  std::vector<std::unique_ptr<Broker>> brokers_;
  std::vector<std::unique_ptr<SubscriberRelay>> sub_relays_;
  std::vector<std::unique_ptr<Client>> clients_;
};

template <typename Pred>
bool wait_until(Pred pred, double timeout_s) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (!pred()) {
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

class TcpBed final : public Bed {
 public:
  TcpBed(const Inputs& in, const Params& p, Trace& trace, Completion& completion) {
    Broker::Options options;
    options.match_threads = p.match_threads;
    const std::size_t n = in.topo.broker_count();
    std::vector<std::uint16_t> ports;
    for (std::size_t b = 0; b < n; ++b) {
      broker_relays_.push_back(std::make_unique<BrokerRelay>(b, trace));
      broker_tcp_.push_back(std::make_unique<TcpTransport>(*broker_relays_.back()));
      transports_.push_back(std::make_unique<CountingTransport>(*broker_tcp_.back(), trace, in.schema));
      brokers_.push_back(std::make_unique<Broker>(BrokerId{static_cast<int>(b)}, in.topo,
                                                  std::vector<SchemaPtr>{in.schema},
                                                  *transports_.back(), options));
      broker_relays_.back()->bind(brokers_.back().get());
      ports.push_back(broker_tcp_.back()->listen(0));
      brokers.push_back(brokers_.back().get());
    }
    for (std::size_t a = 0; a < n; ++a) {
      for (const auto& port : in.topo.ports(BrokerId{static_cast<int>(a)})) {
        if (port.kind != BrokerNetwork::PortKind::kBroker || static_cast<std::size_t>(port.peer_broker.value) <= a) {
          continue;
        }
        const ConnId conn = broker_tcp_[a]->connect(
            "127.0.0.1", ports[static_cast<std::size_t>(port.peer_broker.value)]);
        brokers_[a]->attach_broker_link(conn, port.peer_broker);
        Broker* near = brokers_[a].get();
        Broker* far = brokers_[static_cast<std::size_t>(port.peer_broker.value)].get();
        const BrokerId self{static_cast<int>(a)};
        if (!wait_until([&] { return near->link_up(port.peer_broker) && far->link_up(self); }, 10)) {
          throw std::runtime_error("broker link did not come up");
        }
      }
    }
    auto add_client = [&](const std::string& name, int home, bool subscriber) {
      client_relays_.push_back(subscriber ? std::make_unique<SubscriberRelay>(
                                                static_cast<std::uint32_t>(subscribers.size()),
                                                in.schema, completion, trace)
                                          : nullptr);
      plain_relays_.push_back(std::make_unique<ForwardingHandler>());
      TransportHandler& handler = subscriber ? static_cast<TransportHandler&>(*client_relays_.back())
                                             : *plain_relays_.back();
      client_tcp_.push_back(std::make_unique<TcpTransport>(handler));
      clients_.push_back(std::make_unique<Client>(name, *client_tcp_.back(),
                                                  std::vector<SchemaPtr>{in.schema}));
      Client* client = clients_.back().get();
      if (subscriber) {
        client_relays_.back()->bind(client);
        subscribers.push_back(client);
        relays.push_back(client_relays_.back().get());
      } else {
        plain_relays_.back()->target = client;
        publishers.push_back(client);
      }
      client->bind(client_tcp_.back()->connect("127.0.0.1", ports[static_cast<std::size_t>(home)]));
      if (!wait_until([&] { return client->connected(); }, 10)) {
        throw std::runtime_error("client did not connect");
      }
    };
    for (std::size_t c = 0; c < in.subscriber_home.size(); ++c) {
      add_client(std::string("s") + std::to_string(c), in.subscriber_home[c], true);
    }
    for (std::size_t c = 0; c < in.publisher_home.size(); ++c) {
      add_client(std::string("p") + std::to_string(c), in.publisher_home[c], false);
    }
  }

  ~TcpBed() override {
    for (auto& t : client_tcp_) t->shutdown();
    for (auto& t : broker_tcp_) t->shutdown();
  }

  std::size_t pump_some(std::size_t) override { return 0; }
  void pump_all() override {
    for (Broker* b : brokers) b->flush();
  }
  [[nodiscard]] std::size_t pending() const override { return 0; }
  [[nodiscard]] bool inproc() const override { return false; }

 private:
  struct ForwardingHandler final : TransportHandler {
    Client* target{nullptr};
    void on_connect(ConnId c) override { target->on_connect(c); }
    void on_frame(ConnId c, std::span<const std::uint8_t> f) override { target->on_frame(c, f); }
    void on_disconnect(ConnId c) override { target->on_disconnect(c); }
  };

  std::vector<std::unique_ptr<BrokerRelay>> broker_relays_;
  std::vector<std::unique_ptr<TcpTransport>> broker_tcp_;
  std::vector<std::unique_ptr<CountingTransport>> transports_;
  std::vector<std::unique_ptr<Broker>> brokers_;
  std::vector<std::unique_ptr<SubscriberRelay>> client_relays_;
  std::vector<std::unique_ptr<ForwardingHandler>> plain_relays_;
  std::vector<std::unique_ptr<TcpTransport>> client_tcp_;
  std::vector<std::unique_ptr<Client>> clients_;
};

// ---------------------------------------------------------------------------
// The run.

struct EventRec {
  std::uint32_t tmpl{0};
  std::int64_t sched_ns{0};
  std::uint64_t tick{0};    // logical publish time
  std::uint64_t settle{kNever};  // logical time the network was next quiescent
};

/// A churned subscription's lifecycle in logical time (line3-churn).
struct ChurnRec {
  std::size_t spec{0};        // index into Inputs::churn
  std::uint64_t token{0};
  SubscriptionId id;
  std::int64_t sent_ns{0};
  std::uint64_t sent{kNever};      // subscribe sent
  std::uint64_t visible{kNever};   // every broker holds it
  std::uint64_t unsub{kNever};     // unsubscribe sent
  std::uint64_t removed{kNever};   // no broker holds it
};

struct BrokerTotals {
  std::uint64_t published{0}, forwarded{0}, delivered{0}, relayed{0}, steps{0};

  BrokerTotals& operator+=(const BrokerTotals& o) {
    published += o.published;
    forwarded += o.forwarded;
    delivered += o.delivered;
    relayed += o.relayed;
    steps += o.steps;
    return *this;
  }
  BrokerTotals operator-(const BrokerTotals& o) const {
    return {published - o.published, forwarded - o.forwarded, delivered - o.delivered,
            relayed - o.relayed, steps - o.steps};
  }
};

/// One measurement (a phase, or the merge of a run's rounds).
struct PhaseResult {
  std::vector<double> rates;  // closed-loop events/s per window
  std::vector<double> latency_us;
  std::vector<std::vector<double>> latency_windows_us;  // by scheduled send time
  std::vector<double> lag_us;
  std::uint64_t first_event{0};
  std::uint64_t end_event{0};
  double wall_s{0};
  BrokerTotals work;  // broker counters over the measured phases
};

BrokerTotals totals(const Bed& bed) {
  BrokerTotals t;
  for (const Broker* b : bed.brokers) {
    const Broker::Stats s = b->stats();
    t.published += s.events_published;
    t.forwarded += s.events_forwarded;
    t.delivered += s.events_delivered;
    t.relayed += s.events_relayed;
    t.steps += s.matching_steps;
  }
  return t;
}

/// Control-plane counters summed over the network's brokers.
ControlPlaneStats control_plane_totals(const Bed& bed) {
  ControlPlaneStats t{};
  for (const Broker* b : bed.brokers) {
    const ControlPlaneStats s = b->stats().control_plane;
    t.compile_us_total += s.compile_us_total;
    t.full_publishes += s.full_publishes;
    t.delta_publishes += s.delta_publishes;
    t.covering_only_publishes += s.covering_only_publishes;
    t.covered_subscriptions += s.covered_subscriptions;
    t.frontier_subscriptions += s.frontier_subscriptions;
  }
  return t;
}

class Runner {
 public:
  Runner(Cli cli, Params params, Inputs inputs)
      : cli_(std::move(cli)), p_(std::move(params)), in_(std::move(inputs)), completion_(kCompletionSlots) {
    events_.reserve(1 << 18);
  }

  int run();

 private:
  std::unique_ptr<Bed> make_bed() {
    if (p_.tcp) return std::make_unique<TcpBed>(in_, p_, trace_, completion_);
    return std::make_unique<InProcBed>(in_, p_, trace_, completion_);
  }

  /// Replaces `bed` with a fresh network and loads the standing
  /// subscriptions one subscribe at a time, each acknowledged before the
  /// next; adds the ack times to `acks` if given. Returns seconds to ready.
  double setup(std::unique_ptr<Bed>& bed, std::vector<double>* acks);

  std::uint64_t publish(Bed& bed, std::size_t tmpl, std::int64_t sched_ns);
  PhaseResult saturate(Bed& bed, double seconds);
  PhaseResult open_loop(Bed& bed, double seconds, bool churn);
  /// Alternates saturation and open-loop phases in rounds over `seconds`, so
  /// every metric samples the whole run rather than one stretch of it.
  PhaseResult measure(Bed& bed, double seconds, bool churn);
  void churn_step(Bed& bed, bool subscribe);
  void observe(Bed& bed);
  bool drain(Bed& bed, double timeout_s);
  /// Checks the phase just drained against the oracle, adds the verdict to
  /// verdict_, and drops the phase's bookkeeping so harness memory does not
  /// grow with the event count.
  void check_phase(Bed& bed);
  [[nodiscard]] EventRec& event(std::uint64_t id) { return events_[id - phase_base_]; }
  void replay_and_report(Bed& bed, const PhaseResult& base, const PhaseResult& traced,
                         std::vector<Metric>& out, bool& reconciled);
  void print_provenance(const std::vector<std::pair<std::string, std::string>>& extra) const;

  Cli cli_;
  Params p_;
  Inputs in_;
  Trace trace_;
  Completion completion_;
  std::vector<EventRec> events_;  // this phase's events, from id phase_base_
  std::uint64_t phase_base_{1};     // event id 0 is never published
  std::uint64_t next_id_{1};
  OracleVerdict verdict_;
  std::uint64_t tick_{0};
  std::size_t next_template_{0};
  /// Subscribe-ack times, one window per set-up (standing loads) or per
  /// open-loop phase (churn), summarised like the latency windows.
  std::vector<std::vector<double>> sub_ack_windows_;
  std::vector<ChurnRec> churn_;
  std::size_t churn_next_spec_{0};
  std::size_t churn_retired_{0};  // churn_ prefix whose unsubscribe was sent
  std::uint64_t attempted_subscribes_{0};
  std::uint64_t failed_subscribes_{0};
  std::size_t settled_through_{0};  // events_ prefix already settled
  std::vector<std::size_t> churn_open_;  // churn_ entries not yet seen removed
  std::vector<std::uint64_t> standing_tokens_;  // of the final set-up
  bool injected_{false};
  std::uint64_t sim_failures_{0};  // the traced run's simulator oracle
};

double Runner::setup(std::unique_ptr<Bed>& bed, std::vector<double>* acks) {
  bed.reset();
  const std::int64_t t0 = now_ns();
  bed = make_bed();
  std::vector<std::uint64_t> tokens(in_.standing.size());
  std::vector<std::int64_t> sent(in_.standing.size());
  for (std::size_t i = 0; i < in_.standing.size(); ++i) {
    const SubSpec& s = in_.standing[i];
    Client* client = bed->subscribers[s.client];
    sent[i] = now_ns();
    tokens[i] = client->subscribe(0, s.sub);
    ++attempted_subscribes_;
    if (bed->inproc()) {
      bed->pump_all();
    } else if (!bed->relays[s.client]->wait_ack(tokens[i], std::chrono::seconds(30))) {
      ++failed_subscribes_;
    }
  }
  const std::size_t total = in_.standing.size();
  const bool replicated = wait_until(
      [&] {
        bed->pump_all();
        for (const Broker* b : bed->brokers) {
          if (b->subscription_count() != total) return false;
        }
        return true;
      },
      30);
  const std::int64_t t1 = now_ns();
  if (!replicated) failed_subscribes_ += 1;
  standing_tokens_ = tokens;
  for (std::size_t i = 0; i < in_.standing.size(); ++i) {
    const SubSpec& s = in_.standing[i];
    if (!bed->subscribers[s.client]->subscription_id(tokens[i]).has_value()) {
      ++failed_subscribes_;
      continue;
    }
    if (acks) acks->push_back(static_cast<double>(bed->relays[s.client]->ack_ns(tokens[i]) - sent[i]) / 1e3);
  }
  return static_cast<double>(t1 - t0) / 1e9;
}

std::uint64_t Runner::publish(Bed& bed, std::size_t tmpl, std::int64_t sched_ns) {
  const std::uint64_t id = next_id_++;
  events_.push_back({static_cast<std::uint32_t>(tmpl), sched_ns, ++tick_, kNever});
  const auto expected = static_cast<std::uint32_t>(in_.templates[tmpl].expected.size());
  if (expected > 0) {
    completion_.remaining[completion_.slot(id)].store(expected, std::memory_order_relaxed);
    completion_.started();
  }
  const Event event = make_event(in_, tmpl, id);
  Client* publisher = bed.publishers[in_.templates[tmpl].publisher];
  if (trace_.on.load(std::memory_order_relaxed)) {
    const std::int64_t t0 = now_ns();
    publisher->publish(0, event);
    const double us = static_cast<double>(now_ns() - t0) / 1e3;
    std::lock_guard lock(trace_.mu);
    trace_.publish_call_us.push_back(us);
  } else {
    publisher->publish(0, event);
  }
  return id;
}

/// Bookkeeping after each pump chunk (in-proc): quiescence settles every
/// event published so far; churn subscriptions become visible or removed
/// when every broker's core agrees.
void Runner::observe(Bed& bed) {
  if (trace_.on.load(std::memory_order_relaxed)) {
    trace_.inproc_queue_max = std::max(trace_.inproc_queue_max, bed.pending());
  }
  if (bed.pending() == 0 && settled_through_ < events_.size()) {
    ++tick_;
    for (std::size_t i = settled_through_; i < events_.size(); ++i) events_[i].settle = tick_;
    settled_through_ = events_.size();
  }
  auto held_by = [](const Broker* b, SubscriptionId id) {
    b->core().control_plane().assert_serialized();  // single pumping thread
    return b->core().has_subscription(id);
  };
  for (std::size_t k = 0; k < churn_open_.size();) {
    ChurnRec& c = churn_[churn_open_[k]];
    if (!c.id.valid()) {
      if (const auto id = bed.subscribers[in_.churn[c.spec].client]->subscription_id(c.token)) c.id = *id;
    }
    if (c.id.valid() && c.visible == kNever &&
        std::all_of(bed.brokers.begin(), bed.brokers.end(),
                    [&](const Broker* b) { return held_by(b, c.id); })) {
      c.visible = ++tick_;
    }
    if (c.unsub != kNever && c.removed == kNever &&
        std::none_of(bed.brokers.begin(), bed.brokers.end(),
                     [&](const Broker* b) { return held_by(b, c.id); })) {
      c.removed = ++tick_;
      churn_open_[k] = churn_open_.back();
      churn_open_.pop_back();
      continue;
    }
    ++k;
  }
}

bool Runner::drain(Bed& bed, double timeout_s) {
  if (bed.inproc()) {
    bed.pump_all();
    observe(bed);
    return true;
  }
  const bool done = wait_until(
      [&] { return completion_.in_flight.load(std::memory_order_acquire) <= 0; }, timeout_s);
  bed.pump_all();
  return done;
}

PhaseResult Runner::saturate(Bed& bed, double seconds) {
  PhaseResult r;
  r.first_event = next_id_;
  const std::int64_t t0 = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  const auto window = static_cast<std::int64_t>(p_.window);
  std::vector<std::pair<std::int64_t, std::uint64_t>> marks{{t0, next_id_}};
  const auto mark_every = static_cast<std::int64_t>(kWindowSeconds * 1e9);
  while (now_ns() - t0 < budget) {
    if (now_ns() - marks.back().first >= mark_every) marks.emplace_back(now_ns(), next_id_);
    for (std::size_t burst = 0;
         burst < p_.window && completion_.in_flight.load(std::memory_order_acquire) < window; ++burst) {
      publish(bed, next_template_, now_ns());
      next_template_ = (next_template_ + 1) % in_.templates.size();
    }
    if (bed.inproc()) {
      bed.pump_some(64);
      observe(bed);
    } else {
      while (completion_.in_flight.load(std::memory_order_acquire) >= window &&
             now_ns() - t0 < budget + 5'000'000'000) {
        completion_.wait_below(window, std::chrono::microseconds(1000));
      }
    }
  }
  drain(bed, 30);
  const std::int64_t t1 = now_ns();
  r.end_event = next_id_;
  check_phase(bed);
  r.wall_s = static_cast<double>(t1 - t0) / 1e9;
  // Closed loop: publishes track completions to within the window, so the
  // per-window publish rate is the completion rate.
  std::vector<double> rates;
  for (std::size_t i = 1; i < marks.size(); ++i) {
    rates.push_back(static_cast<double>(marks[i].second - marks[i - 1].second) /
                    (static_cast<double>(marks[i].first - marks[i - 1].first) / 1e9));
  }
  r.rates = rates.empty() ? std::vector<double>{static_cast<double>(r.end_event - r.first_event) / r.wall_s}
                          : std::move(rates);
  return r;
}

void Runner::churn_step(Bed& bed, bool subscribe) {
  // Churn alternates: a fresh subscribe, then (half a period later) an
  // unsubscribe of the oldest acknowledged churn subscription once the pool
  // is full. Keeping the two apart lets each ack time one compile at the
  // home broker rather than whatever the previous op left queued.
  if (!subscribe) {
    if (churn_.size() - churn_retired_ >= p_.churn_pool && churn_[churn_retired_].id.valid()) {
      ChurnRec& old = churn_[churn_retired_++];
      old.unsub = ++tick_;
      bed.subscribers[in_.churn[old.spec].client]->unsubscribe(old.id);
    }
    return;
  }
  ChurnRec c;
  c.spec = churn_next_spec_++ % in_.churn.size();
  c.sent = ++tick_;
  c.sent_ns = now_ns();
  c.token = bed.subscribers[in_.churn[c.spec].client]->subscribe(0, in_.churn[c.spec].sub);
  ++attempted_subscribes_;
  churn_open_.push_back(churn_.size());
  churn_.push_back(c);
}

PhaseResult Runner::open_loop(Bed& bed, double seconds, bool churn) {
  PhaseResult r;
  r.first_event = next_id_;
  const auto n = static_cast<std::size_t>(p_.open_loop_rate_eps * seconds);
  const double period = 1e9 / p_.open_loop_rate_eps;
  const std::size_t churn_ops = churn ? static_cast<std::size_t>(p_.churn_rate_ops * seconds) : 0;
  const double churn_period = churn_ops > 0 ? 1e9 / p_.churn_rate_ops : 0;
  const std::size_t churn_first = churn_.size();
  std::vector<double>* acks = churn ? &sub_ack_windows_.emplace_back() : nullptr;
  const std::int64_t t0 = now_ns() + 2'000'000;
  std::size_t i = 0;
  std::size_t c = 0;
  r.lag_us.reserve(n);
  while (i < n || c < churn_ops) {
    std::int64_t now = now_ns();
    while (i < n && t0 + static_cast<std::int64_t>(static_cast<double>(i) * period) <= now) {
      const std::int64_t sched = t0 + static_cast<std::int64_t>(static_cast<double>(i) * period);
      publish(bed, next_template_, sched);
      next_template_ = (next_template_ + 1) % in_.templates.size();
      r.lag_us.push_back(static_cast<double>(now - sched) / 1e3);
      ++i;
      now = now_ns();
    }
    while (c < churn_ops && t0 + static_cast<std::int64_t>(static_cast<double>(c) * churn_period) <= now) {
      churn_step(bed, c % 2 == 0);
      ++c;
    }
    if (bed.inproc()) {
      if (bed.pending() > 0) bed.pump_some(32);
      observe(bed);
    } else {
      // Sleep to the next send rather than spin: over TCP a spinning
      // generator takes a core from the brokers' transport threads.
      const std::int64_t next = t0 + static_cast<std::int64_t>(static_cast<double>(i) * period);
      if (next > now) std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
    }
  }
  drain(bed, 30);
  r.end_event = next_id_;
  r.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  r.latency_windows_us.resize(static_cast<std::size_t>(seconds / kWindowSeconds) + 1);
  for (SubscriberRelay* relay : bed.relays) {
    for (const Arrival& a : relay->arrivals()) {
      if (a.event >= r.first_event && a.event < r.end_event) {
        const std::int64_t sched = event(a.event).sched_ns;
        const double us = static_cast<double>(a.t_ns - sched) / 1e3;
        r.latency_us.push_back(us);
        const auto w = std::min(r.latency_windows_us.size() - 1,
                                static_cast<std::size_t>(static_cast<double>(sched - t0) / 1e9 / kWindowSeconds));
        r.latency_windows_us[w].push_back(us);
      }
    }
  }
  for (std::size_t k = churn_first; k < churn_.size(); ++k) {
    const ChurnRec& rec = churn_[k];
    SubscriberRelay* relay = bed.relays[in_.churn[rec.spec].client];
    if (rec.id.valid() && relay->ack_ns(rec.token) != 0) {
      acks->push_back(static_cast<double>(relay->ack_ns(rec.token) - rec.sent_ns) / 1e3);
    } else {
      ++failed_subscribes_;
    }
  }
  check_phase(bed);
  return r;
}

PhaseResult Runner::measure(Bed& bed, double seconds, bool churn) {
  constexpr double kRoundSeconds = 2.5;
  constexpr double kSaturationShare = 0.4;
  const auto rounds = std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kRoundSeconds + 0.5));
  const double round_s = seconds / static_cast<double>(rounds);
  PhaseResult all;
  all.first_event = next_id_;
  for (std::size_t r = 0; r < rounds; ++r) {
    const BrokerTotals before = totals(bed);
    for (PhaseResult part : {saturate(bed, round_s * kSaturationShare),
                             open_loop(bed, round_s * (1 - kSaturationShare), churn)}) {
      all.rates.insert(all.rates.end(), part.rates.begin(), part.rates.end());
      all.latency_us.insert(all.latency_us.end(), part.latency_us.begin(), part.latency_us.end());
      all.lag_us.insert(all.lag_us.end(), part.lag_us.begin(), part.lag_us.end());
      for (auto& w : part.latency_windows_us) all.latency_windows_us.push_back(std::move(w));
      all.wall_s += part.wall_s;
    }
    all.work += totals(bed) - before;
  }
  all.end_event = next_id_;
  return all;
}

/// The oracle: standing subscriptions require delivery of every matching
/// event (templates carry their expected clients). A churned subscription
/// requires delivery of events published after it was visible at every
/// broker and settled before its unsubscribe was sent; it allows (but does
/// not require) delivery of events whose lifetime overlaps its transitions;
/// anything else delivered is spurious.
void Runner::check_phase(Bed& bed) {
  std::vector<std::uint64_t> required;
  std::vector<std::uint64_t> allowed;
  std::vector<std::uint64_t> delivered;
  for (std::uint64_t id = phase_base_; id < next_id_; ++id) {
    for (const std::uint32_t client : in_.templates[event(id).tmpl].expected) {
      required.push_back(delivery_key(client, id));
    }
  }
  if (!churn_.empty()) {
    NaiveMatcher oracle;
    for (std::size_t k = 0; k < churn_.size(); ++k) {
      oracle.add(SubscriptionId{static_cast<std::int64_t>(k)}, in_.churn[churn_[k].spec].sub);
    }
    for (std::uint64_t id = phase_base_; id < next_id_; ++id) {
      const EventRec& e = event(id);
      for (const SubscriptionId k : oracle.match(make_event(in_, e.tmpl, id)).ids) {
        const ChurnRec& c = churn_[static_cast<std::size_t>(k.value)];
        const std::uint64_t key = delivery_key(in_.churn[c.spec].client, id);
        if (c.visible < e.tick && e.settle < c.unsub) {
          required.push_back(key);
        } else if (c.sent < e.settle && e.tick < c.removed) {
          allowed.push_back(key);
        }
      }
    }
  }
  for (SubscriberRelay* relay : bed.relays) {
    for (const Arrival& a : relay->arrivals()) delivered.push_back(delivery_key(relay->index(), a.event));
    relay->arrivals().clear();
  }
  if (!injected_ && !cli_.inject.empty()) {
    injected_ = true;
    if (cli_.inject == "missing" && !delivered.empty()) {
      delivered.pop_back();
    } else if (cli_.inject == "duplicate" && !delivered.empty()) {
      delivered.push_back(delivered.front());
    } else if (cli_.inject == "spurious") {
      delivered.push_back(delivery_key(0, 0));  // event 0 is never published
    }
  }
  const OracleVerdict v = diff_deliveries(required, allowed, delivered);
  verdict_.expected += v.expected;
  verdict_.delivered += v.delivered;
  verdict_.missing += v.missing;
  verdict_.duplicate += v.duplicate;
  verdict_.spurious += v.spurious;
  events_.clear();
  phase_base_ = next_id_;
  settled_through_ = 0;
}

std::string compiler_string() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

void Runner::print_provenance(const std::vector<std::pair<std::string, std::string>>& extra) const {
  const unsigned hw = std::thread::hardware_concurrency();
  std::string line = "{\"provenance\": {";
  auto field = [&line](const std::string& k, const std::string& v, bool quote) {
    if (line.back() != '{') line += ", ";
    line += '"';
    line += k;
    line += "\": ";
    line += quote ? '"' + json_escape(v) + '"' : v;
  };
  field("workload", p_.name, true);
  field("seed", std::to_string(cli_.seed), false);
  field("seconds", json_number(cli_.seconds), false);
  field("trace", cli_.trace ? "true" : "false", false);
  field("nproc", std::to_string(hw), false);
  field("scaling_valid", hw >= 4 ? "true" : "false", false);
  field("compiler", compiler_string(), true);
#ifdef E2E_BUILD_TYPE
  field("build_type", E2E_BUILD_TYPE, true);
#endif
  field("git_commit", cli_.git_commit, true);
  field("transport", p_.tcp ? "tcp-loopback" : "inproc", true);
  field("match_threads_per_broker", std::to_string(p_.match_threads), false);
  field("brokers", std::to_string(in_.topo.broker_count()), false);
  field("subscriber_clients", std::to_string(in_.subscriber_home.size()), false);
  field("standing_subscriptions", std::to_string(in_.standing.size()), false);
  field("setup_repeats", std::to_string(p_.setup_repeats), false);
  field("closed_loop_window", std::to_string(p_.window), false);
  field("open_loop_rate_eps", json_number(p_.open_loop_rate_eps), false);
  field("churn_rate_ops", json_number(p_.churn_rate_ops), false);
  for (const auto& [k, v] : extra) field(k, v, false);
  line += "}}";
  std::printf("%s\n", line.c_str());
}

double pct_change(double from, double to) { return from == 0 ? 0 : (to - from) / from * 100.0; }

int Runner::run() {
  const bool churn = p_.churn_rate_ops > 0;
  // The harness's own memory (inputs, completion ring), so the brokers'
  // share of peak_rss_mb can be read off.
  const double harness_rss_mb = peak_rss_mb();
  std::unique_ptr<Bed> bed;
  std::vector<double> setup_s;
  for (std::size_t r = 0; r < p_.setup_repeats; ++r) {
    const bool traced_setup = cli_.trace && r + 1 == p_.setup_repeats;
    if (traced_setup) {
      trace_.reset(in_.topo.broker_count());
      trace_.on = true;
    }
    // line3-churn reports subscribe acks under churn only.
    setup_s.push_back(setup(bed, churn || traced_setup ? nullptr : &sub_ack_windows_.emplace_back()));
    trace_.on = false;
  }
  Trace::PerBroker setup_trace;  // subscribe / sub_propagate frames of the traced set-up
  if (cli_.trace) {
    for (const auto& b : trace_.brokers) {
      for (std::size_t t = 0; t < kFrameSlots; ++t) {
        setup_trace.self_us[t].insert(setup_trace.self_us[t].end(), b.self_us[t].begin(), b.self_us[t].end());
      }
    }
  }
  // Control-plane cost of the final set-up alone (later churn adds to it).
  const ControlPlaneStats setup_cp = control_plane_totals(*bed);
  // A traced run measures half its time untraced (the overhead baseline)
  // and half traced.
  const double measured_s = cli_.trace ? cli_.seconds / 2 : cli_.seconds;
  PhaseResult run = measure(*bed, measured_s, churn);

  std::vector<Metric> metrics;
  bool reconciled = true;
  if (cli_.trace) {
    trace_.reset(in_.topo.broker_count());
    for (std::size_t t = 0; t < kFrameSlots; ++t) trace_.brokers[0].self_us[t] = std::move(setup_trace.self_us[t]);
    trace_.on = true;
    PhaseResult traced = measure(*bed, measured_s, churn);
    // Unsubscribe a few standing subscriptions so the unsubscribe path is
    // traced on every workload.
    for (std::size_t i = 0; i < 4 && i < in_.standing.size(); ++i) {
      Client* client = bed->subscribers[in_.standing[i].client];
      if (const auto id = client->subscription_id(standing_tokens_[i])) client->unsubscribe(*id);
    }
    bed->pump_all();
    if (!bed->inproc()) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    trace_.on = false;
    drain(*bed, 30);
    replay_and_report(*bed, run, traced, metrics, reconciled);
  }

  const OracleVerdict& verdict = verdict_;
  const double lag_p99 = percentile(run.lag_us, 99);
  std::size_t sub_acks = 0;
  for (const auto& w : sub_ack_windows_) sub_acks += w.size();
  const bool lag_ok = lag_p99 < 50'000;  // a generator 50 ms late invalidates the latency phase
  std::vector<Metric> e2e_metrics = {
      {"setup_s", median(setup_s), "s"},
      {"throughput_eps", interquartile_mean(run.rates), "1/s"},
      {"latency_p50_us", windowed_percentile(run.latency_windows_us, 50), "us"},
      {"sub_ack_p50_us", windowed_percentile(sub_ack_windows_, 50), "us"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  const double events_measured = static_cast<double>(run.end_event - run.first_event);
  print_provenance({
      {"events_published", std::to_string(next_id_ - 1)},
      {"latency_samples", std::to_string(run.latency_us.size())},
      // Tails are recorded, not gated: over TCP a host that deschedules the
      // VM's threads moves them by 3x between runs (e2ebench/README.md).
      {"latency_p90_us", json_number(windowed_percentile(run.latency_windows_us, 90))},
      {"latency_p90_samples_beyond", std::to_string(samples_beyond(run.latency_us.size(), 90))},
      {"latency_p99_us", json_number(windowed_percentile(run.latency_windows_us, 99))},
      {"latency_windows", std::to_string(run.latency_windows_us.size())},
      {"throughput_windows", std::to_string(run.rates.size())},
      {"sub_ack_samples", std::to_string(sub_acks)},
      // Recorded, not gated, for the latency tail's reason. p90 is the
      // highest percentile with ten samples beyond it in a window of 100
      // acks (a line3-churn run holds about 150).
      {"sub_ack_p90_us", json_number(windowed_percentile(sub_ack_windows_, 90))},
      {"sub_ack_windows", std::to_string(sub_ack_windows_.size())},
      {"generator_lag_p50_us", json_number(percentile(run.lag_us, 50))},
      {"generator_lag_p99_us", json_number(lag_p99)},
      {"latency_phase_valid", lag_ok ? "true" : "false"},
      {"setup_s_each", [&] {
         std::string s = "[";
         for (std::size_t i = 0; i < setup_s.size(); ++i) s += (i ? ", " : "") + json_number(setup_s[i]);
         return s + "]";
       }()},
      {"harness_rss_mb", json_number(harness_rss_mb)},
      {"setup_full_publishes", std::to_string(setup_cp.full_publishes)},
      {"setup_compile_us_total", std::to_string(setup_cp.compile_us_total)},
      {"deliveries_per_event", json_number(static_cast<double>(run.work.delivered) / events_measured)},
      {"forwards_per_event", json_number(static_cast<double>(run.work.forwarded) / events_measured)},
      {"oracle_expected", std::to_string(verdict.expected)},
      {"oracle_missing", std::to_string(verdict.missing)},
      {"oracle_duplicate", std::to_string(verdict.duplicate)},
      {"oracle_spurious", std::to_string(verdict.spurious)},
      {"churn_subscriptions", std::to_string(churn_.size())},
      {"reconciled", reconciled ? "true" : "false"},
  });

  metrics.push_back({"oracle.delivery_failure_ratio", verdict.failure_ratio(), "ratio"});
  metrics.push_back({"oracle.missing", static_cast<double>(verdict.missing), "count"});
  metrics.push_back({"oracle.duplicate", static_cast<double>(verdict.duplicate), "count"});
  metrics.push_back({"oracle.spurious", static_cast<double>(verdict.spurious), "count"});
  metrics.push_back({"client.generator_lag_p99_us", lag_p99, "us"});

  const std::uint64_t failed = verdict.failures() + failed_subscribes_ + sim_failures_;
  const std::uint64_t attempted = (next_id_ - 1) + attempted_subscribes_;
  const bool correct = failed == 0 && lag_ok && (reconciled || !cli_.trace);
  if (!correct) {
    std::fprintf(stderr,
                 "e2e_bench: run rejected: missing=%llu duplicate=%llu spurious=%llu "
                 "failed_subscribes=%llu sim_failures=%llu generator_lag_p99_us=%.0f reconciled=%d\n",
                 static_cast<unsigned long long>(verdict.missing),
                 static_cast<unsigned long long>(verdict.duplicate),
                 static_cast<unsigned long long>(verdict.spurious),
                 static_cast<unsigned long long>(failed_subscribes_),
                 static_cast<unsigned long long>(sim_failures_), lag_p99, reconciled ? 1 : 0);
  }
  bed.reset();
  std::printf("%s\n", result_json(correct, attempted, failed, cli_.trace ? metrics : e2e_metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced-run attribution.

template <typename Fn>
double mean_ns_per(std::size_t count, Fn&& fn) {
  if (count == 0) return 0;
  const std::int64_t t0 = now_ns();
  fn();
  return static_cast<double>(now_ns() - t0) / static_cast<double>(count);
}

void Runner::replay_and_report(Bed& bed, const PhaseResult& base, const PhaseResult& traced,
                               std::vector<Metric>& out, bool& reconciled) {
  using wire::FrameType;
  const std::vector<Trace::Recorded>& rec = trace_.recorded;
  std::vector<std::size_t> pubs;
  std::vector<std::size_t> fwds;
  for (std::size_t i = 0; i < rec.size(); ++i) {
    (rec[i].frame[0] == static_cast<std::uint8_t>(FrameType::kPublish) ? pubs : fwds).push_back(i);
  }
  // Codec replay, timed per stage over the recorded frames.
  std::vector<wire::Publish> decoded_pubs(pubs.size());
  std::vector<wire::EventForward> decoded_fwds(fwds.size());
  const double decode_publish_ns = mean_ns_per(pubs.size(), [&] {
    for (std::size_t i = 0; i < pubs.size(); ++i) decoded_pubs[i] = wire::decode_publish(rec[pubs[i]].frame);
  });
  const double decode_forward_ns = mean_ns_per(fwds.size(), [&] {
    for (std::size_t i = 0; i < fwds.size(); ++i) decoded_fwds[i] = wire::decode_event_forward(rec[fwds[i]].frame);
  });
  struct Item {
    std::size_t broker;
    SpaceId space;
    const std::vector<std::uint8_t>* bytes;
    BrokerId root;
  };
  std::vector<Item> items;
  for (std::size_t i = 0; i < pubs.size(); ++i) {
    items.push_back({rec[pubs[i]].broker, decoded_pubs[i].space, &decoded_pubs[i].event,
                     BrokerId{static_cast<int>(rec[pubs[i]].broker)}});
  }
  for (std::size_t i = 0; i < fwds.size(); ++i) {
    items.push_back({rec[fwds[i]].broker, decoded_fwds[i].space, &decoded_fwds[i].event, decoded_fwds[i].tree_root});
  }
  std::vector<Event> events;
  events.reserve(items.size());
  const double event_decode_ns = mean_ns_per(items.size(), [&] {
    for (const Item& it : items) events.push_back(decode_event(in_.schema, *it.bytes));
  });
  std::size_t encoded_bytes = 0;  // consumed below, so the encodes stay live
  const double encode_deliver_ns = mean_ns_per(items.size(), [&] {
    for (std::size_t i = 0; i < items.size(); ++i) {
      encoded_bytes += wire::encode(wire::Deliver{i, items[i].space, *items[i].bytes}).size();
    }
  });
  const double encode_forward_ns = mean_ns_per(items.size(), [&] {
    for (std::size_t i = 0; i < items.size(); ++i) {
      encoded_bytes += wire::encode(wire::EventForward{items[i].root, items[i].space, *items[i].bytes, 1, i}).size();
    }
  });
  if (!items.empty() && encoded_bytes == 0) throw std::logic_error("codec replay encoded nothing");
  // Data-plane replay on each quiesced broker's core, one-event batches as
  // the synchronous broker dispatches them.
  DispatchBatch batch;
  const double dispatch_ns = mean_ns_per(items.size(), [&] {
    for (std::size_t i = 0; i < items.size(); ++i) {
      batch.clear();
      batch.add(items[i].space, events[i], items[i].root);
      (void)bed.brokers[items[i].broker]->core().dispatch(batch);
    }
  });

  // Handler self time per frame type, merged over brokers.
  auto merged = [&](FrameType type) {
    std::vector<double> all;
    for (const auto& b : trace_.brokers) {
      const auto& v = b.self_us[static_cast<std::size_t>(type)];
      all.insert(all.end(), v.begin(), v.end());
    }
    return all;
  };
  const std::pair<const char*, FrameType> types[] = {
      {"publish", FrameType::kPublish},         {"event_forward", FrameType::kEventForward},
      {"ack", FrameType::kAck},                 {"broker_ack", FrameType::kBrokerAck},
      {"subscribe", FrameType::kSubscribe},     {"sub_propagate", FrameType::kSubPropagate},
      {"unsubscribe", FrameType::kUnsubscribe},
  };
  for (const auto& [name, type] : types) {
    const std::vector<double> v = merged(type);
    out.push_back({std::string("broker.on_frame_us.") + name + ".p50", percentile(v, 50), "us"});
    out.push_back({std::string("broker.on_frame_us.") + name + ".p99", percentile(v, 99), "us"});
  }
  std::int64_t event_self_ns = 0;
  std::uint64_t event_frames = 0;
  double busy_share = 0;
  for (const auto& b : trace_.brokers) {
    event_self_ns += b.event_self_ns;
    event_frames += b.event_frames;
  }
  const auto traced_wall = static_cast<std::int64_t>(traced.wall_s * 1e9);
  for (const auto& b : trace_.brokers) {
    busy_share = std::max(busy_share, static_cast<double>(b.busy_ns) / static_cast<double>(traced_wall));
  }
  const double pub_share = static_cast<double>(pubs.size()) / std::max<double>(1, static_cast<double>(items.size()));
  const double replay_decode_ns =
      pub_share * decode_publish_ns + (1 - pub_share) * decode_forward_ns + event_decode_ns;
  const double self_per_event_ns =
      event_frames == 0 ? 0 : static_cast<double>(event_self_ns) / static_cast<double>(event_frames);
  const double apply_ns = self_per_event_ns - replay_decode_ns - dispatch_ns;
  // Reconciliation: the replayed stages must fit inside the measured handler
  // self time (apply, derived as the remainder, may not go negative beyond
  // the tolerance). Only checked where the apply stage runs inside on_frame,
  // i.e. synchronous brokers (match_threads == 0).
  const double reconcile_ratio =
      self_per_event_ns == 0 ? 0 : (replay_decode_ns + dispatch_ns) / self_per_event_ns;
  constexpr double kReconcileTolerance = 0.15;
  if (p_.match_threads == 0 && reconcile_ratio > 1 + kReconcileTolerance) reconciled = false;

  const double events_traced = static_cast<double>(traced.end_event - traced.first_event);
  const BrokerTotals& work = traced.work;
  auto per_event = [&](double v) { return events_traced == 0 ? 0 : v / events_traced; };
  out.push_back({"broker.apply_us", std::max(0.0, apply_ns) / 1e3, "us"});
  out.push_back({"broker.busy_share", busy_share, "ratio"});
  out.push_back({"broker.deliveries_per_event", per_event(static_cast<double>(work.delivered)), "count"});
  std::uint64_t retransmits = 0, duplicates = 0, rejected = 0, log_max = 0;
  const ControlPlaneStats cp = control_plane_totals(bed);
  const std::uint64_t covered = cp.covered_subscriptions;
  const std::uint64_t frontier = cp.frontier_subscriptions;
  for (const Broker* b : bed.brokers) {
    const Broker::Stats s = b->stats();
    retransmits += s.retransmits;
    duplicates += s.duplicates_dropped;
    rejected += s.frames_rejected;
    for (std::size_t c = 0; c < bed.subscribers.size(); ++c) {
      log_max = std::max(log_max, b->client_log_size(bed.subscribers[c]->name()));
    }
  }
  out.push_back({"broker.retransmits", static_cast<double>(retransmits), "count"});
  out.push_back({"broker.duplicates_dropped", static_cast<double>(duplicates), "count"});
  out.push_back({"broker.frames_rejected", static_cast<double>(rejected), "count"});
  out.push_back({"broker.client_log_max", static_cast<double>(log_max), "count"});
  out.push_back({"broker_core.dispatch_ns", dispatch_ns, "ns"});
  out.push_back({"broker_core.compile_us_total", static_cast<double>(cp.compile_us_total), "us"});
  out.push_back({"broker_core.full_publishes", static_cast<double>(cp.full_publishes), "count"});
  out.push_back({"broker_core.delta_publishes", static_cast<double>(cp.delta_publishes), "count"});
  out.push_back({"broker_core.covering_only_publishes", static_cast<double>(cp.covering_only_publishes), "count"});
  out.push_back({"broker_core.covered_ratio",
                 covered + frontier == 0 ? 0 : static_cast<double>(covered) / static_cast<double>(covered + frontier),
                 "ratio"});
  out.push_back({"matching.steps_per_event", per_event(static_cast<double>(work.steps)), "count"});
  out.push_back({"routing.forwards_per_event", per_event(static_cast<double>(work.forwarded)), "count"});
  out.push_back({"routing.brokers_visited_per_event",
                 per_event(static_cast<double>(work.published + work.relayed)),
                 "count"});
  out.push_back({"wire.decode_publish_ns", decode_publish_ns, "ns"});
  out.push_back({"wire.decode_forward_ns", decode_forward_ns, "ns"});
  out.push_back({"event.decode_ns", event_decode_ns, "ns"});
  out.push_back({"wire.encode_deliver_ns", encode_deliver_ns, "ns"});
  out.push_back({"wire.encode_forward_ns", encode_forward_ns, "ns"});

  using FT = wire::FrameType;
  // Frames brokers sent (deliver, event_forward, broker_ack) and client
  // acks brokers received, per published event.
  auto frames_of = [&](FT t) { return per_event(static_cast<double>(trace_.frames_sent[static_cast<std::size_t>(t)])); };
  auto received_of = [&](FT t) {
    std::size_t n = 0;
    for (const auto& b : trace_.brokers) n += b.self_us[static_cast<std::size_t>(t)].size();
    return per_event(static_cast<double>(n));
  };
  out.push_back({"transport.frames_per_event.event_forward", frames_of(FT::kEventForward), "count"});
  out.push_back({"transport.frames_per_event.broker_ack", frames_of(FT::kBrokerAck), "count"});
  out.push_back({"transport.frames_per_event.deliver", frames_of(FT::kDeliver), "count"});
  out.push_back({"transport.frames_per_event.ack", received_of(FT::kAck), "count"});
  out.push_back({"transport.bytes_per_event", per_event(static_cast<double>(trace_.bytes_sent)), "B"});
  out.push_back({"transport.frames_per_batch",
                 trace_.batch_calls == 0 ? 0 : static_cast<double>(trace_.batch_frames) / static_cast<double>(trace_.batch_calls),
                 "count"});
  out.push_back({"transport.send_us",
                 trace_.send_calls == 0 ? 0 : static_cast<double>(trace_.send_ns) / static_cast<double>(trace_.send_calls) / 1e3,
                 "us"});
  out.push_back({"transport.wait_p50_us", percentile(trace_.wait_us, 50), "us"});
  out.push_back({"transport.wait_p99_us", percentile(trace_.wait_us, 99), "us"});
  out.push_back({"transport.inproc_queue_max", static_cast<double>(trace_.inproc_queue_max), "count"});
  out.push_back({"client.publish_us", percentile(trace_.publish_call_us, 50), "us"});

  out.push_back({"trace.reconcile_ratio", reconcile_ratio, "ratio"});
  out.push_back({"trace.overhead_throughput_pct", -pct_change(interquartile_mean(base.rates), interquartile_mean(traced.rates)), "%"});
  out.push_back({"trace.overhead_latency_p50_pct",
                 pct_change(windowed_percentile(base.latency_windows_us, 50),
                            windowed_percentile(traced.latency_windows_us, 50)),
                 "%"});

  // The simulator layer: the scale point (Waxman, 500 brokers, link
  // matching, kAuto control plane, oracle verification on), built and run
  // once per traced run.
  SimSpec spec;
  spec.seed = cli_.seed;
  spec.topology.kind = TopologyKind::kWaxman;
  spec.topology.waxman.brokers = 500;
  spec.workload.subscriptions = 200000;
  spec.workload.events = 1000;
  spec.workload.rate_eps = 100.0;
  spec.engine.threads = std::max(1u, std::thread::hardware_concurrency());
  const std::int64_t b0 = now_ns();
  Simulation sim(spec);
  const double build_s = static_cast<double>(now_ns() - b0) / 1e9;
  const SimResult r = sim.run();
  const double ev = static_cast<double>(std::max<std::size_t>(1, r.events_published));
  out.push_back({"sim.build_s", build_s, "s"});
  out.push_back({"sim.wall_s", r.wall_seconds, "s"});
  out.push_back({"sim.events_per_s", static_cast<double>(r.events_published) / r.wall_seconds, "1/s"});
  out.push_back({"sim.steps_per_event", static_cast<double>(r.total_matching_steps) / ev, "count"});
  out.push_back({"sim.broker_messages_per_event", static_cast<double>(r.broker_messages) / ev, "count"});
  out.push_back({"sim.bytes_per_event", static_cast<double>(r.bytes_on_wire) / ev, "B"});
  out.push_back({"sim.max_utilization", r.max_utilization, "ratio"});
  out.push_back({"sim.oracle_events_verified", static_cast<double>(r.oracle_events_verified), "count"});
  out.push_back({"sim.delivery_failures",
                 static_cast<double>(r.missing_deliveries + r.spurious_deliveries + r.duplicate_deliveries), "count"});
  out.push_back({"sim.steps_exact", r.steps_exact ? 1.0 : 0.0, "bool"});
  out.push_back({"sim.control_plane_exact", std::strcmp(r.control_plane, "exact") == 0 ? 1.0 : 0.0, "bool"});
  sim_failures_ = r.missing_deliveries + r.spurious_deliveries + r.duplicate_deliveries;
}

Cli parse(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") cli.workload = value();
    else if (arg == "--seed") cli.seed = std::stoull(value());
    else if (arg == "--seconds") cli.seconds = std::stod(value());
    else if (arg == "--trace") cli.trace = value() == "1";
    else if (arg == "--inject") cli.inject = value();
    else if (arg == "--git-commit") cli.git_commit = value();
    else throw std::invalid_argument("unknown argument " + arg);
  }
  if (cli.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(cli.seconds > 0)) throw std::invalid_argument("--seconds is required and must be positive");
  if (!cli.inject.empty() && cli.inject != "missing" && cli.inject != "duplicate" && cli.inject != "spurious") {
    throw std::invalid_argument("--inject must be missing, duplicate or spurious");
  }
  return cli;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  // The open-loop generator and the set-up waits sleep on this thread; with
  // the default 50 us timer slack every such sleep would overshoot.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  try {
    const e2e::Cli cli = e2e::parse(argc, argv);
    const e2e::Params params = e2e::params_for(cli.workload);
    e2e::Inputs inputs = cli.workload == "pair-tcp-fanout" ? e2e::pair_inputs(cli.seed)
                                                           : e2e::line3_inputs(cli.seed);
    e2e::Runner runner(cli, params, std::move(inputs));
    return runner.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 2;
  }
}
