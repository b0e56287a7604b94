// Differential proof for the sharded, batched data plane: partitioning the
// compiled matching state into shards and draining events through
// DispatchBatch must be a pure layout change. Every decision a sharded
// core produces — forward set, local matches (in order), deliver_locally,
// steps — must be bit-identical to the unsharded core dispatching one event
// at a time, for the same subscription history, across control-plane churn.
#include <gtest/gtest.h>

#include <vector>

#include "broker/broker_core.h"
#include "common/rng.h"
#include "matching/shard_router.h"
#include "topology/builders.h"
#include "workload/generators.h"

namespace gryphon {
namespace {

constexpr SpaceId kSpace0{0};

PstMatcherOptions factored_options() {
  PstMatcherOptions options;
  options.factoring_levels = 2;  // shards partition by factoring key
  return options;
}

/// One-event dispatch through the batch API. Returns a copy so the batch
/// can go out of scope.
Decision dispatch1(const BrokerCore& core, const Event& e, BrokerId tree_root) {
  DispatchBatch batch;
  batch.add(kSpace0, e, tree_root);
  return core.dispatch(batch)[0];
}

/// Field-by-field equality, excluding `shard` (shard is placement, which
/// legitimately differs between shard counts).
void expect_same_decision(const Decision& a, const Decision& b, const char* context) {
  EXPECT_EQ(a.forward, b.forward) << context;
  EXPECT_EQ(a.local_matches, b.local_matches) << context;  // order included
  EXPECT_EQ(a.deliver_locally, b.deliver_locally) << context;
  EXPECT_EQ(a.steps, b.steps) << context;
}

/// Dispatches every (event, root) pair through both cores — sharded as one
/// batch, unsharded one event at a time — and requires identical decisions
/// plus identical match_all sets.
void expect_cores_agree(const BrokerCore& sharded, const BrokerCore& unsharded,
                        const std::vector<Event>& pool) {
  for (int root = 0; root < 3; ++root) {
    DispatchBatch batch;
    for (const Event& e : pool) batch.add(kSpace0, e, BrokerId{root});
    const auto decisions = sharded.dispatch(batch);
    ASSERT_EQ(decisions.size(), pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      expect_same_decision(decisions[i], dispatch1(unsharded, pool[i], BrokerId{root}),
                           "sharded batch vs unsharded one-event batches");
    }
  }
  for (const Event& e : pool) {
    EXPECT_EQ(sharded.match_all(kSpace0, e), unsharded.match_all(kSpace0, e));
  }
}

class ShardedDispatchTest : public ::testing::Test {
 protected:
  SchemaPtr schema_ = make_synthetic_schema(4, 3);
  BrokerNetwork topo_ = make_line(3, 10, 0, 1);
};

TEST_F(ShardedDispatchTest, BitIdenticalToUnshardedAcrossChurn) {
  BrokerCore sharded(BrokerId{1}, topo_, {schema_}, factored_options(), 5);
  BrokerCore unsharded(BrokerId{1}, topo_, {schema_}, factored_options(), 1);
  EXPECT_EQ(sharded.shard_count(kSpace0), 5u);
  EXPECT_EQ(unsharded.shard_count(kSpace0), 1u);

  Rng rng(2026);
  SubscriptionGenerator gen(schema_, SubscriptionWorkloadConfig{0.9, 0.85, 1.0});
  EventGenerator events(schema_);
  std::vector<Event> pool;
  for (int i = 0; i < 40; ++i) pool.push_back(events.generate(rng));

  // Phase 1: identical adds into both cores.
  for (std::int64_t i = 0; i < 120; ++i) {
    const auto s = gen.generate(rng);
    const BrokerId owner{static_cast<BrokerId::rep_type>(rng.below(3))};
    sharded.add_subscription(kSpace0, SubscriptionId{i}, s, owner);
    unsharded.add_subscription(kSpace0, SubscriptionId{i}, s, owner);
  }
  expect_cores_agree(sharded, unsharded, pool);

  // Phase 2: churn — remove a third, then add a fresh wave.
  for (std::int64_t i = 0; i < 120; i += 3) {
    ASSERT_TRUE(sharded.remove_subscription(SubscriptionId{i}));
    ASSERT_TRUE(unsharded.remove_subscription(SubscriptionId{i}));
  }
  expect_cores_agree(sharded, unsharded, pool);

  for (std::int64_t i = 200; i < 240; ++i) {
    const auto s = gen.generate(rng);
    const BrokerId owner{static_cast<BrokerId::rep_type>(rng.below(3))};
    sharded.add_subscription(kSpace0, SubscriptionId{i}, s, owner);
    unsharded.add_subscription(kSpace0, SubscriptionId{i}, s, owner);
  }
  expect_cores_agree(sharded, unsharded, pool);
}

TEST_F(ShardedDispatchTest, BatchAgreesWithOneEventBatchesOnSameCore) {
  // On a single core a many-event batch and one-event batches share the
  // shard layout, so even Decision::shard must agree.
  BrokerCore core(BrokerId{1}, topo_, {schema_}, factored_options(), 3);
  Rng rng(7);
  SubscriptionGenerator gen(schema_, SubscriptionWorkloadConfig{0.9, 0.85, 1.0});
  for (std::int64_t i = 0; i < 80; ++i) {
    core.add_subscription(kSpace0, SubscriptionId{i}, gen.generate(rng),
                          BrokerId{static_cast<BrokerId::rep_type>(rng.below(3))});
  }
  EventGenerator events(schema_);
  std::vector<Event> pool;
  for (int i = 0; i < 30; ++i) pool.push_back(events.generate(rng));

  DispatchBatch batch;
  for (const Event& e : pool) batch.add(kSpace0, e, BrokerId{0});
  const auto decisions = core.dispatch(batch);
  ASSERT_EQ(decisions.size(), pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Decision single = dispatch1(core, pool[i], BrokerId{0});
    expect_same_decision(decisions[i], single, "batch vs one-event batch");
    EXPECT_EQ(decisions[i].shard, single.shard);
    EXPECT_LT(decisions[i].shard, core.shard_count(kSpace0));
  }
}

TEST_F(ShardedDispatchTest, DecisionsComeBackInAddOrder) {
  // The batch visits items in (space, shard) order for locality, but the
  // decision span is indexed by staging order — decisions()[i] must belong
  // to the i-th add() no matter how the visit order was permuted.
  BrokerCore core(BrokerId{1}, topo_, {schema_}, factored_options(), 4);
  Rng rng(11);
  SubscriptionGenerator gen(schema_, SubscriptionWorkloadConfig{0.9, 0.85, 1.0});
  for (std::int64_t i = 0; i < 60; ++i) {
    core.add_subscription(kSpace0, SubscriptionId{i}, gen.generate(rng),
                          BrokerId{static_cast<BrokerId::rep_type>(rng.below(3))});
  }
  EventGenerator events(schema_);
  std::vector<Event> pool;
  for (int i = 0; i < 50; ++i) pool.push_back(events.generate(rng));

  DispatchBatch batch;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    // Alternate tree roots so sorting has more than one key to permute.
    batch.add(kSpace0, pool[i], BrokerId{static_cast<BrokerId::rep_type>(i % 3)});
  }
  const auto decisions = core.dispatch(batch);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Decision single =
        dispatch1(core, pool[i], BrokerId{static_cast<BrokerId::rep_type>(i % 3)});
    expect_same_decision(decisions[i], single, "decision order");
    EXPECT_EQ(decisions[i].shard, single.shard);
  }
}

TEST_F(ShardedDispatchTest, UnfactoredSpaceCollapsesToOneShard) {
  // Without factoring there is no key to route by: the shard request is
  // accepted but the space stays a single shard, and dispatch is still
  // identical to a shards=1 core.
  BrokerCore sharded(BrokerId{1}, topo_, {schema_}, PstMatcherOptions(), 8);
  BrokerCore unsharded(BrokerId{1}, topo_, {schema_}, PstMatcherOptions(), 1);
  EXPECT_EQ(sharded.shard_count(kSpace0), 1u);

  Rng rng(5);
  SubscriptionGenerator gen(schema_, SubscriptionWorkloadConfig{0.9, 0.85, 1.0});
  for (std::int64_t i = 0; i < 50; ++i) {
    const auto s = gen.generate(rng);
    const BrokerId owner{static_cast<BrokerId::rep_type>(rng.below(3))};
    sharded.add_subscription(kSpace0, SubscriptionId{i}, s, owner);
    unsharded.add_subscription(kSpace0, SubscriptionId{i}, s, owner);
  }
  EventGenerator events(schema_);
  std::vector<Event> pool;
  for (int i = 0; i < 20; ++i) pool.push_back(events.generate(rng));
  expect_cores_agree(sharded, unsharded, pool);

  DispatchBatch batch;
  for (const Event& e : pool) batch.add(kSpace0, e, BrokerId{0});
  for (const Decision& d : sharded.dispatch(batch)) EXPECT_EQ(d.shard, 0u);
}

TEST(ShardRouterBalance, SmallDomainKeysSpreadAcrossShards) {
  // Regression for the FNV low-bit skew: factoring keys drawn from small
  // integer domains (exactly what make_synthetic_schema produces) used to
  // pile onto a fraction of the shards, leaving others empty at 16 shards.
  // With the splitmix64 finalizer the population must hit every shard and
  // stay within 3x of the mean.
  std::vector<FactoringIndex::Key> keys;
  for (std::int64_t a = 0; a < 12; ++a) {
    for (std::int64_t b = 0; b < 12; ++b) {
      keys.push_back({Value(a), Value(b)});
    }
  }
  for (const std::size_t shards : {8u, 16u}) {
    ShardRouter router(shards);
    std::vector<std::size_t> counts(shards, 0);
    for (const FactoringIndex::Key& key : keys) ++counts[router.shard_of_key(key)];
    std::size_t min_count = keys.size();
    std::size_t max_count = 0;
    for (const std::size_t c : counts) {
      min_count = std::min(min_count, c);
      max_count = std::max(max_count, c);
    }
    EXPECT_GT(min_count, 0u) << shards << " shards: an empty shard serves no events";
    // max <= 3 * mean, i.e. max * shards <= 3 * total.
    EXPECT_LE(max_count * shards, 3 * keys.size()) << shards << " shards";
  }
}

TEST_F(ShardedDispatchTest, BatchValidatesBeforeDispatching) {
  BrokerCore core(BrokerId{1}, topo_, {schema_}, factored_options(), 2);
  EventGenerator events(schema_);
  Rng rng(3);
  const Event e = events.generate(rng);

  DispatchBatch bad_root;
  bad_root.add(kSpace0, e, BrokerId{77});
  EXPECT_THROW(core.dispatch(bad_root), std::invalid_argument);

  DispatchBatch bad_space;
  bad_space.add(SpaceId{9}, e, BrokerId{0});
  EXPECT_THROW(core.dispatch(bad_space), std::invalid_argument);

  DispatchBatch empty;
  EXPECT_TRUE(core.dispatch(empty).empty());
}

}  // namespace
}  // namespace gryphon
