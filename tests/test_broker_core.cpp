#include "broker/broker_core.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "topology/builders.h"
#include "workload/generators.h"

namespace gryphon {
namespace {

constexpr SpaceId kSpace0{0};

Subscription sub_eq(const SchemaPtr& schema, std::vector<int> values) {
  std::vector<AttributeTest> tests;
  for (const int v : values) {
    tests.push_back(v < 0 ? AttributeTest::dont_care() : AttributeTest::equals(Value(v)));
  }
  return Subscription(schema, std::move(tests));
}

Event ev(const SchemaPtr& schema, std::vector<int> values) {
  std::vector<Value> v;
  for (const int x : values) v.emplace_back(x);
  return Event(schema, std::move(v));
}

BrokerNetwork broker_only_line(std::size_t n) { return make_line(n, 10, 0, 1); }

/// One-event dispatch through the batch-first API (the only dispatch
/// entry). Returns a copy so the batch can go out of scope.
BrokerCore::Decision dispatch1(const BrokerCore& core, SpaceId space, const Event& e,
                               BrokerId tree_root) {
  DispatchBatch batch;
  batch.add(space, e, tree_root);
  return core.dispatch(batch)[0];
}

class BrokerCoreTest : public ::testing::Test {
 protected:
  SchemaPtr schema_ = make_synthetic_schema(4, 3);
  BrokerNetwork topo_ = broker_only_line(3);
};

TEST_F(BrokerCoreTest, RejectsTopologyWithClients) {
  const auto with_clients = make_line(2, 10, 1, 1);
  EXPECT_THROW(BrokerCore(BrokerId{0}, with_clients, {schema_}), std::invalid_argument);
}

TEST_F(BrokerCoreTest, NeighborsFollowPortOrder) {
  BrokerCore core(BrokerId{1}, topo_, {schema_});
  EXPECT_EQ(core.neighbors(), (std::vector<BrokerId>{BrokerId{0}, BrokerId{2}}));
}

TEST_F(BrokerCoreTest, RoutesTowardRemoteOwner) {
  BrokerCore core(BrokerId{0}, topo_, {schema_});
  core.add_subscription(kSpace0, SubscriptionId{1}, sub_eq(schema_, {1, -1, -1, -1}), BrokerId{2});

  const auto hit = dispatch1(core, kSpace0, ev(schema_, {1, 0, 0, 0}), BrokerId{0});
  EXPECT_EQ(hit.forward, (std::vector<BrokerId>{BrokerId{1}}));
  EXPECT_FALSE(hit.deliver_locally);
  EXPECT_TRUE(hit.local_matches.empty());

  const auto miss = dispatch1(core, kSpace0, ev(schema_, {2, 0, 0, 0}), BrokerId{0});
  EXPECT_TRUE(miss.forward.empty());
  EXPECT_FALSE(miss.deliver_locally);
}

TEST_F(BrokerCoreTest, DispatchYieldsLocalMatches) {
  BrokerCore core(BrokerId{1}, topo_, {schema_});
  core.add_subscription(kSpace0, SubscriptionId{1}, sub_eq(schema_, {1, -1, -1, -1}), BrokerId{1});
  core.add_subscription(kSpace0, SubscriptionId{2}, sub_eq(schema_, {1, 2, -1, -1}), BrokerId{1});
  core.add_subscription(kSpace0, SubscriptionId{3}, sub_eq(schema_, {1, -1, -1, -1}), BrokerId{0});

  auto decision = dispatch1(core, kSpace0, ev(schema_, {1, 2, 0, 0}), BrokerId{1});
  EXPECT_TRUE(decision.deliver_locally);
  EXPECT_EQ(decision.forward, (std::vector<BrokerId>{BrokerId{0}}));

  std::sort(decision.local_matches.begin(), decision.local_matches.end());
  EXPECT_EQ(decision.local_matches,
            (std::vector<SubscriptionId>{SubscriptionId{1}, SubscriptionId{2}}));
}

TEST_F(BrokerCoreTest, DispatchLocalMatchesAgreeWithMatchAll) {
  // dispatch() is the one data-plane entry point (the route()/match_local()
  // shims are gone): its local-match list must be exactly the locally-owned
  // subset of the network-wide match set.
  BrokerCore core(BrokerId{1}, topo_, {schema_});
  core.add_subscription(kSpace0, SubscriptionId{1}, sub_eq(schema_, {1, -1, -1, -1}), BrokerId{1});
  core.add_subscription(kSpace0, SubscriptionId{3}, sub_eq(schema_, {1, -1, -1, -1}), BrokerId{0});

  const Event e = ev(schema_, {1, 2, 0, 0});
  const auto decision = dispatch1(core, kSpace0, e, BrokerId{1});
  std::vector<SubscriptionId> expected_local;
  for (const SubscriptionId id : core.match_all(kSpace0, e)) {
    if (core.owner_of(id) == core.self()) expected_local.push_back(id);
  }
  auto from_dispatch = decision.local_matches;
  std::sort(from_dispatch.begin(), from_dispatch.end());
  std::sort(expected_local.begin(), expected_local.end());
  EXPECT_EQ(from_dispatch, expected_local);
  EXPECT_EQ(decision.deliver_locally, !expected_local.empty());
}

TEST_F(BrokerCoreTest, NoUpstreamForwarding) {
  // Event arrives at broker 2 on the tree rooted at 0; the only subscriber
  // is at broker 0 (upstream). Broker 2 must not bounce it back.
  BrokerCore core(BrokerId{2}, topo_, {schema_});
  core.add_subscription(kSpace0, SubscriptionId{1}, sub_eq(schema_, {-1, -1, -1, -1}),
                        BrokerId{0});
  const auto decision = dispatch1(core, kSpace0, ev(schema_, {0, 0, 0, 0}), BrokerId{0});
  EXPECT_TRUE(decision.forward.empty());
  EXPECT_FALSE(decision.deliver_locally);
}

TEST_F(BrokerCoreTest, HopByHopDeliveryMatchesCentralMatch) {
  // Three cores, one per broker, sharing the subscription set; walk events
  // through dispatch() decisions and compare against match_all ownership.
  std::vector<std::unique_ptr<BrokerCore>> cores;
  for (int b = 0; b < 3; ++b) {
    cores.push_back(std::make_unique<BrokerCore>(BrokerId{b}, topo_,
                                                 std::vector<SchemaPtr>{schema_}));
  }
  Rng rng(88);
  SubscriptionGenerator gen(schema_, SubscriptionWorkloadConfig{0.9, 0.85, 1.0});
  for (std::int64_t i = 0; i < 150; ++i) {
    const auto s = gen.generate(rng);
    const BrokerId owner{static_cast<BrokerId::rep_type>(rng.below(3))};
    for (auto& core : cores) core->add_subscription(kSpace0, SubscriptionId{i}, s, owner);
  }

  EventGenerator events(schema_);
  for (int i = 0; i < 60; ++i) {
    const Event e = events.generate(rng);
    for (int root = 0; root < 3; ++root) {
      std::set<std::int64_t> delivered;
      std::vector<BrokerId> frontier{BrokerId{root}};
      std::set<int> visited;
      while (!frontier.empty()) {
        const BrokerId at = frontier.back();
        frontier.pop_back();
        ASSERT_TRUE(visited.insert(at.value).second);
        const auto d =
            dispatch1(*cores[static_cast<std::size_t>(at.value)], kSpace0, e, BrokerId{root});
        for (const BrokerId next : d.forward) frontier.push_back(next);
        EXPECT_EQ(d.deliver_locally, !d.local_matches.empty());
        for (const SubscriptionId id : d.local_matches) delivered.insert(id.value);
      }
      std::set<std::int64_t> expected;
      for (const SubscriptionId id : cores[0]->match_all(kSpace0, e)) expected.insert(id.value);
      EXPECT_EQ(delivered, expected);
    }
  }
}

TEST_F(BrokerCoreTest, MultipleInformationSpaces) {
  const auto other = make_synthetic_schema(2, 2, "other");
  BrokerCore core(BrokerId{0}, topo_, {schema_, other});
  EXPECT_EQ(core.space_count(), 2u);
  EXPECT_EQ(core.schema(SpaceId{1})->name(), "other");
  core.add_subscription(SpaceId{1}, SubscriptionId{1}, sub_eq(other, {1, -1}), BrokerId{0});
  EXPECT_TRUE(dispatch1(core, SpaceId{1}, ev(other, {1, 0}), BrokerId{0}).deliver_locally);
  EXPECT_FALSE(
      dispatch1(core, kSpace0, ev(schema_, {1, 0, 0, 0}), BrokerId{0}).deliver_locally);
  EXPECT_THROW((void)core.schema(SpaceId{2}), std::invalid_argument);
  EXPECT_THROW(
      core.add_subscription(SpaceId{5}, SubscriptionId{2}, sub_eq(other, {1, -1}), BrokerId{0}),
      std::invalid_argument);
}

TEST_F(BrokerCoreTest, RemoveSubscriptionStopsRouting) {
  BrokerCore core(BrokerId{0}, topo_, {schema_});
  core.add_subscription(kSpace0, SubscriptionId{1}, sub_eq(schema_, {-1, -1, -1, -1}),
                        BrokerId{2});
  EXPECT_FALSE(dispatch1(core, kSpace0, ev(schema_, {0, 0, 0, 0}), BrokerId{0}).forward.empty());
  EXPECT_TRUE(core.remove_subscription(SubscriptionId{1}));
  EXPECT_TRUE(dispatch1(core, kSpace0, ev(schema_, {0, 0, 0, 0}), BrokerId{0}).forward.empty());
  EXPECT_FALSE(core.remove_subscription(SubscriptionId{1}));
}

TEST_F(BrokerCoreTest, SnapshotVersionAdvancesWithControlPlane) {
  BrokerCore core(BrokerId{0}, topo_, {schema_});
  const auto v0 = core.snapshot_version();
  core.add_subscription(kSpace0, SubscriptionId{1}, sub_eq(schema_, {-1, -1, -1, -1}),
                        BrokerId{0});
  const auto v1 = core.snapshot_version();
  EXPECT_GT(v1, v0);
  EXPECT_TRUE(core.remove_subscription(SubscriptionId{1}));
  EXPECT_GT(core.snapshot_version(), v1);
}

TEST_F(BrokerCoreTest, OwnerLookupAndValidation) {
  BrokerCore core(BrokerId{0}, topo_, {schema_});
  core.add_subscription(kSpace0, SubscriptionId{1}, sub_eq(schema_, {-1, -1, -1, -1}),
                        BrokerId{2});
  EXPECT_EQ(core.owner_of(SubscriptionId{1}), BrokerId{2});
  EXPECT_EQ(core.space_of(SubscriptionId{1}), kSpace0);
  EXPECT_THROW((void)core.owner_of(SubscriptionId{9}), std::invalid_argument);
  EXPECT_THROW(core.add_subscription(kSpace0, SubscriptionId{1},
                                     sub_eq(schema_, {-1, -1, -1, -1}), BrokerId{0}),
               std::invalid_argument);  // duplicate id
  EXPECT_THROW(core.add_subscription(kSpace0, SubscriptionId{2},
                                     sub_eq(schema_, {-1, -1, -1, -1}), BrokerId{77}),
               std::invalid_argument);  // bad owner
}

}  // namespace
}  // namespace gryphon
