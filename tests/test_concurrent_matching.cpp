// Concurrent matching: dispatch from many threads while the control plane
// churns subscriptions. Readers pin an immutable snapshot per event, so a
// dispatch must never observe a half-applied subscription change; every
// reported id is checked against brute-force predicate evaluation, and
// subscriptions that are stable across the churn window must never be lost.
// This file is the primary ThreadSanitizer target (see tools/ci.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "broker/broker_core.h"
#include "broker/client.h"
#include "broker/inproc_transport.h"
#include "common/rng.h"
#include "topology/builders.h"
#include "workload/generators.h"

namespace gryphon {
namespace {

constexpr SpaceId kSpace0{0};

TEST(ConcurrentMatching, DispatchSeesConsistentSnapshotsUnderChurn) {
  const auto schema = make_synthetic_schema(4, 3);
  const BrokerNetwork topo = make_line(3, 10, 0, 1);
  BrokerCore core(BrokerId{1}, topo, {schema});

  Rng rng(7041);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.85, 0.8, 1.0});

  // Stable subscriptions: present before the readers start, never removed.
  // Churn subscriptions: added and removed in a loop by the writer. The
  // oracle map covers both, so a reader can validate any id it sees.
  constexpr std::int64_t kStableCount = 60;
  constexpr std::int64_t kChurnCount = 40;
  constexpr std::int64_t kChurnBase = 1000;
  std::map<SubscriptionId, Subscription> oracle;
  std::map<SubscriptionId, BrokerId> owner;
  for (std::int64_t i = 0; i < kStableCount; ++i) {
    const SubscriptionId id{i};
    const BrokerId o{static_cast<BrokerId::rep_type>(i % 3)};
    oracle.emplace(id, gen.generate(rng));
    owner.emplace(id, o);
    core.add_subscription(kSpace0, id, oracle.at(id), o);
  }
  for (std::int64_t k = 0; k < kChurnCount; ++k) {
    const SubscriptionId id{kChurnBase + k};
    oracle.emplace(id, gen.generate(rng));
    owner.emplace(id, BrokerId{static_cast<BrokerId::rep_type>(k % 3)});
  }

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int round = 0; round < 150; ++round) {
      for (std::int64_t k = 0; k < kChurnCount; ++k) {
        const SubscriptionId id{kChurnBase + k};
        core.add_subscription(kSpace0, id, oracle.at(id), owner.at(id));
      }
      for (std::int64_t k = 0; k < kChurnCount; ++k) {
        ASSERT_TRUE(core.remove_subscription(SubscriptionId{kChurnBase + k}));
      }
    }
    done.store(true, std::memory_order_release);
  });

  const auto reader = [&](unsigned seed) {
    Rng thread_rng(seed);
    EventGenerator events(schema);
    DispatchBatch batch;
    while (!done.load(std::memory_order_acquire)) {
      const Event e = events.generate(thread_rng);
      const BrokerId root{static_cast<BrokerId::rep_type>(thread_rng.below(3))};
      batch.clear();
      batch.add(kSpace0, e, root);
      const Decision& d = core.dispatch(batch)[0];

      EXPECT_EQ(d.deliver_locally, !d.local_matches.empty());
      std::set<SubscriptionId> seen;
      for (const SubscriptionId id : d.local_matches) {
        EXPECT_TRUE(seen.insert(id).second) << "duplicate local match " << id.value;
        ASSERT_TRUE(oracle.contains(id));
        EXPECT_EQ(owner.at(id), BrokerId{1}) << "non-local id " << id.value;
        EXPECT_TRUE(oracle.at(id).matches(e)) << "false positive id " << id.value;
      }
      for (const BrokerId next : d.forward) {
        EXPECT_TRUE(next == BrokerId{0} || next == BrokerId{2});
      }
      // Stable completeness: a matching stable subscription owned here must
      // be reported no matter which snapshot the dispatch pinned.
      for (std::int64_t i = 0; i < kStableCount; ++i) {
        const SubscriptionId id{i};
        if (owner.at(id) == BrokerId{1} && oracle.at(id).matches(e)) {
          EXPECT_TRUE(seen.contains(id)) << "lost stable match " << id.value;
        }
      }

      // match_all: the network-wide stable set must survive churn too.
      const auto all = core.match_all(kSpace0, e);
      const std::set<SubscriptionId> all_set(all.begin(), all.end());
      EXPECT_EQ(all_set.size(), all.size()) << "duplicate in match_all";
      for (const SubscriptionId id : all) {
        ASSERT_TRUE(oracle.contains(id));
        EXPECT_TRUE(oracle.at(id).matches(e));
      }
      for (std::int64_t i = 0; i < kStableCount; ++i) {
        const SubscriptionId id{i};
        if (oracle.at(id).matches(e)) {
          EXPECT_TRUE(all_set.contains(id)) << "lost stable match_all id " << id.value;
        }
      }
    }
  };

  std::vector<std::thread> readers;
  for (unsigned t = 0; t < 4; ++t) readers.emplace_back(reader, 100 + t);
  writer.join();
  for (auto& r : readers) r.join();
}

// Sharded batch dispatch under churn: readers drain whole DispatchBatches
// against a factored, sharded core while the writer churns subscriptions.
// Each batch pins one snapshot, so every decision in a batch must be
// consistent with a single subscription state; shard ids must stay inside
// the published shard layout. This is the TSan target for the sharded
// data plane (the batch context reuses its scratch across items).
TEST(ConcurrentMatching, ShardedBatchDispatchUnderChurn) {
  const auto schema = make_synthetic_schema(4, 3);
  const BrokerNetwork topo = make_line(3, 10, 0, 1);
  PstMatcherOptions matcher;
  matcher.factoring_levels = 2;
  BrokerCore core(BrokerId{1}, topo, {schema}, matcher, 4);
  ASSERT_EQ(core.shard_count(kSpace0), 4u);

  Rng rng(8088);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.85, 0.8, 1.0});
  constexpr std::int64_t kStableCount = 50;
  constexpr std::int64_t kChurnCount = 30;
  constexpr std::int64_t kChurnBase = 2000;
  std::map<SubscriptionId, Subscription> oracle;
  std::map<SubscriptionId, BrokerId> owner;
  for (std::int64_t i = 0; i < kStableCount; ++i) {
    const SubscriptionId id{i};
    const BrokerId o{static_cast<BrokerId::rep_type>(i % 3)};
    oracle.emplace(id, gen.generate(rng));
    owner.emplace(id, o);
    core.add_subscription(kSpace0, id, oracle.at(id), o);
  }
  for (std::int64_t k = 0; k < kChurnCount; ++k) {
    const SubscriptionId id{kChurnBase + k};
    oracle.emplace(id, gen.generate(rng));
    owner.emplace(id, BrokerId{static_cast<BrokerId::rep_type>(k % 3)});
  }

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int round = 0; round < 100; ++round) {
      for (std::int64_t k = 0; k < kChurnCount; ++k) {
        const SubscriptionId id{kChurnBase + k};
        core.add_subscription(kSpace0, id, oracle.at(id), owner.at(id));
      }
      for (std::int64_t k = 0; k < kChurnCount; ++k) {
        ASSERT_TRUE(core.remove_subscription(SubscriptionId{kChurnBase + k}));
      }
    }
    done.store(true, std::memory_order_release);
  });

  const auto reader = [&](unsigned seed) {
    Rng thread_rng(seed);
    EventGenerator events(schema);
    DispatchBatch batch;
    std::vector<Event> pool;
    while (!done.load(std::memory_order_acquire)) {
      pool.clear();
      batch.clear();
      for (int b = 0; b < 16; ++b) pool.push_back(events.generate(thread_rng));
      for (const Event& e : pool) {
        batch.add(kSpace0, e, BrokerId{static_cast<BrokerId::rep_type>(
                                  thread_rng.below(3))});
      }
      const auto decisions = core.dispatch(batch);
      ASSERT_EQ(decisions.size(), pool.size());
      for (std::size_t i = 0; i < pool.size(); ++i) {
        const Decision& d = decisions[i];
        EXPECT_LT(d.shard, 4u);
        EXPECT_EQ(d.deliver_locally, !d.local_matches.empty());
        std::set<SubscriptionId> seen;
        for (const SubscriptionId id : d.local_matches) {
          EXPECT_TRUE(seen.insert(id).second) << "duplicate local match " << id.value;
          ASSERT_TRUE(oracle.contains(id));
          EXPECT_EQ(owner.at(id), BrokerId{1}) << "non-local id " << id.value;
          EXPECT_TRUE(oracle.at(id).matches(pool[i])) << "false positive " << id.value;
        }
        // Stable completeness survives sharding: a matching stable local
        // subscription must be reported from whichever shard holds it.
        for (std::int64_t s = 0; s < kStableCount; ++s) {
          const SubscriptionId id{s};
          if (owner.at(id) == BrokerId{1} && oracle.at(id).matches(pool[i])) {
            EXPECT_TRUE(seen.contains(id)) << "lost stable match " << id.value;
          }
        }
      }
    }
  };

  std::vector<std::thread> readers;
  for (unsigned t = 0; t < 4; ++t) readers.emplace_back(reader, 300 + t);
  writer.join();
  for (auto& r : readers) r.join();
}

// Covering + delta compilation under concurrent dispatch: the writer churns
// a workload designed to park/promote constantly (broad coverers over a
// stable covered set) against a core with aggressive slice growth, while
// readers validate every reported id and the stable subscriptions' matches.
// Covering-only publishes share the compiled tables between snapshots and
// the expansion path reads the persistent CoveringSnapshot slices — this is
// the TSan target for those structures.
TEST(ConcurrentMatching, CoveringChurnKeepsSnapshotsConsistent) {
  const auto schema = make_synthetic_schema(4, 3);
  const BrokerNetwork topo = make_line(3, 10, 0, 1);
  ControlPlaneOptions control;
  control.delta_segment_target = 16;  // force multi-segment + growth early
  control.max_delta_segments = 8;
  BrokerCore core(BrokerId{1}, topo, {schema}, PstMatcherOptions(), 1, control);

  Rng rng(60321);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.85, 0.6, 1.0});
  constexpr std::int64_t kStableCount = 60;
  constexpr std::int64_t kChurnCount = 30;
  constexpr std::int64_t kChurnBase = 5000;
  std::map<SubscriptionId, Subscription> oracle;
  std::map<SubscriptionId, BrokerId> owner;
  for (std::int64_t i = 0; i < kStableCount; ++i) {
    const SubscriptionId id{i};
    const BrokerId o{static_cast<BrokerId::rep_type>(i % 3)};
    oracle.emplace(id, gen.generate(rng));
    owner.emplace(id, o);
    core.add_subscription(kSpace0, id, oracle.at(id), o);
  }
  // Churn set: all-don't-care coverers — every add demotes broad swathes of
  // the stable set, every remove promotes them back.
  for (std::int64_t k = 0; k < kChurnCount; ++k) {
    const SubscriptionId id{kChurnBase + k};
    oracle.emplace(id, Subscription::match_all(schema));
    owner.emplace(id, BrokerId{static_cast<BrokerId::rep_type>(k % 3)});
  }

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int round = 0; round < 120; ++round) {
      for (std::int64_t k = 0; k < kChurnCount; ++k) {
        const SubscriptionId id{kChurnBase + k};
        core.add_subscription(kSpace0, id, oracle.at(id), owner.at(id));
      }
      for (std::int64_t k = 0; k < kChurnCount; ++k) {
        ASSERT_TRUE(core.remove_subscription(SubscriptionId{kChurnBase + k}));
      }
    }
    done.store(true, std::memory_order_release);
  });

  const auto reader = [&](unsigned seed) {
    Rng thread_rng(seed);
    EventGenerator events(schema);
    DispatchBatch batch;
    while (!done.load(std::memory_order_acquire)) {
      const Event e = events.generate(thread_rng);
      const BrokerId root{static_cast<BrokerId::rep_type>(thread_rng.below(3))};
      batch.clear();
      batch.add(kSpace0, e, root);
      const Decision& d = core.dispatch(batch)[0];
      EXPECT_EQ(d.deliver_locally, !d.local_matches.empty());
      std::set<SubscriptionId> seen;
      for (const SubscriptionId id : d.local_matches) {
        EXPECT_TRUE(seen.insert(id).second) << "duplicate local match " << id.value;
        ASSERT_TRUE(oracle.contains(id));
        EXPECT_EQ(owner.at(id), BrokerId{1}) << "non-local id " << id.value;
        EXPECT_TRUE(oracle.at(id).matches(e)) << "false positive id " << id.value;
      }
      // A stable matching local subscription must be reported whether the
      // pinned snapshot has it on the frontier or parked under a coverer.
      for (std::int64_t i = 0; i < kStableCount; ++i) {
        const SubscriptionId id{i};
        if (owner.at(id) == BrokerId{1} && oracle.at(id).matches(e)) {
          EXPECT_TRUE(seen.contains(id)) << "lost stable match " << id.value;
        }
      }
      const auto all = core.match_all(kSpace0, e);
      const std::set<SubscriptionId> all_set(all.begin(), all.end());
      EXPECT_EQ(all_set.size(), all.size()) << "duplicate in match_all";
      for (std::int64_t i = 0; i < kStableCount; ++i) {
        const SubscriptionId id{i};
        if (oracle.at(id).matches(e)) {
          EXPECT_TRUE(all_set.contains(id)) << "lost stable match_all id " << id.value;
        }
      }
    }
  };

  std::vector<std::thread> readers;
  for (unsigned t = 0; t < 4; ++t) readers.emplace_back(reader, 700 + t);
  writer.join();
  for (auto& r : readers) r.join();
}

TEST(ConcurrentMatching, SnapshotVersionMonotonicUnderWriters) {
  const auto schema = make_synthetic_schema(3, 3);
  const BrokerNetwork topo = make_line(2, 10, 0, 1);
  BrokerCore core(BrokerId{0}, topo, {schema});

  std::atomic<bool> done{false};
  std::thread observer([&] {
    std::uint64_t last = core.snapshot_version();
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t v = core.snapshot_version();
      EXPECT_GE(v, last);
      last = v;
    }
  });
  Rng rng(99);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.8, 0.8, 1.0});
  for (std::int64_t i = 0; i < 500; ++i) {
    core.add_subscription(kSpace0, SubscriptionId{i}, gen.generate(rng), BrokerId{0});
    if (i % 2 == 0) {
      ASSERT_TRUE(core.remove_subscription(SubscriptionId{i}));
    }
  }
  done.store(true, std::memory_order_release);
  observer.join();
}

// End-to-end: a broker pipeline with match workers delivers exactly the
// matching events, no losses and no duplicates, while frame handling and
// matching run on different threads.
TEST(ConcurrentMatching, BrokerPipelineDeliversExactly) {
  const SchemaPtr schema =
      make_schema("trades", {Attribute{"issue", AttributeType::kString, {}},
                             Attribute{"price", AttributeType::kDouble, {}},
                             Attribute{"volume", AttributeType::kInt, {}}});
  const BrokerNetwork topo = make_line(2, 10, 0, 1);
  InProcNetwork net;
  Broker::Options options;
  options.match_threads = 3;
  std::vector<std::unique_ptr<Broker>> brokers;
  for (int b = 0; b < 2; ++b) {
    auto* endpoint = net.create_endpoint("broker" + std::to_string(b));
    brokers.push_back(std::make_unique<Broker>(BrokerId{b}, topo,
                                               std::vector<SchemaPtr>{schema}, *endpoint,
                                               options));
    endpoint->set_handler(brokers.back().get());
  }
  const ConnId link = net.connect("broker0", "broker1");
  brokers[0]->attach_broker_link(link, BrokerId{1});
  net.pump();

  const auto add_client = [&](const std::string& name, int broker,
                              std::vector<std::unique_ptr<Client>>& out) -> Client& {
    auto* endpoint = net.create_endpoint(name);
    out.push_back(std::make_unique<Client>(name, *endpoint, std::vector<SchemaPtr>{schema}));
    endpoint->set_handler(out.back().get());
    out.back()->bind(net.connect(name, "broker" + std::to_string(broker)));
    net.pump();
    return *out.back();
  };

  std::vector<std::unique_ptr<Client>> clients;
  Client& subscriber = add_client("sub", 1, clients);
  Client& local_sub = add_client("near", 0, clients);
  Client& publisher = add_client("pub", 0, clients);
  subscriber.subscribe(0, "issue = \"IBM\"");
  local_sub.subscribe(0, "issue = \"IBM\" & volume > 5");
  net.pump();
  brokers[0]->flush();
  brokers[1]->flush();

  constexpr int kMatching = 120;
  constexpr int kNoise = 80;
  int published_matching = 0, published_noise = 0, big_volume = 0;
  while (published_matching < kMatching || published_noise < kNoise) {
    if (published_matching < kMatching) {
      const int volume = published_matching % 10;
      big_volume += volume > 5 ? 1 : 0;
      publisher.publish(0, Event(schema, {Value("IBM"), Value(100.0), Value(volume)}));
      ++published_matching;
    }
    if (published_noise < kNoise) {
      publisher.publish(0, Event(schema, {Value("HP"), Value(50.0), Value(1)}));
      ++published_noise;
    }
    // Drain: publish frames to broker0, match there, forwards to broker1,
    // match there, deliveries back out to the clients.
    for (int round = 0; round < 3; ++round) {
      net.pump();
      brokers[0]->flush();
      brokers[1]->flush();
    }
    net.pump();
  }

  const auto remote = subscriber.take_deliveries();
  ASSERT_EQ(remote.size(), static_cast<std::size_t>(kMatching));
  std::uint64_t last_seq = 0;
  for (const auto& d : remote) {
    EXPECT_GT(d.seq, last_seq);  // strictly increasing: no duplicates
    last_seq = d.seq;
    EXPECT_EQ(d.event.values()[0], Value("IBM"));
  }
  EXPECT_EQ(local_sub.take_deliveries().size(), static_cast<std::size_t>(big_volume));

  const auto stats = brokers[0]->stats();
  EXPECT_EQ(stats.events_published, static_cast<std::uint64_t>(kMatching + kNoise));
  EXPECT_EQ(stats.events_forwarded, static_cast<std::uint64_t>(kMatching));
}

// Destruction with a busy pipeline: queued events are drained, not dropped,
// before the workers exit.
TEST(ConcurrentMatching, BrokerDrainsQueueOnDestruction) {
  const auto schema = make_synthetic_schema(3, 3);
  const BrokerNetwork topo = make_line(1, 10, 0, 1);
  InProcNetwork net;
  Broker::Options options;
  options.match_threads = 2;
  {
    auto* endpoint = net.create_endpoint("broker0");
    Broker broker(BrokerId{0}, topo, {schema}, *endpoint, options);
    endpoint->set_handler(&broker);
    broker.flush();  // flush on an idle pipeline returns immediately
  }
  SUCCEED();
}

}  // namespace
}  // namespace gryphon
