// The service's correctness gate: after ANY event sequence, the
// incrementally-maintained topology must serialize byte-identically to a
// from-scratch rebuild of the same world, and both must equal a brute-force
// oracle that shares no code with either. This is what licenses the R-disc
// locality and pair-once Δ rules in ValidationService::apply_locked -- if
// the affected-pair bound were ever too tight, these tests would diverge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <span>
#include <utility>
#include <vector>

#include "fault/plan.h"
#include "service/events.h"
#include "service/validation_service.h"
#include "topology/graph.h"
#include "util/rng.h"

namespace snd::service {
namespace {

std::vector<std::pair<NodeId, util::Vec2>> random_field(std::size_t count,
                                                        const util::Rect& field,
                                                        std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<NodeId, util::Vec2>> nodes;
  nodes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    nodes.emplace_back(static_cast<NodeId>(i + 1),
                       util::Vec2{rng.uniform(field.lo.x, field.hi.x),
                                  rng.uniform(field.lo.y, field.hi.y)});
  }
  return nodes;
}

void expect_equivalent(const ValidationService& service, const char* context) {
  const auto incremental = service.snapshot();
  const auto rebuilt = service.rebuild();
  ASSERT_EQ(incremental->canonical_json(), rebuilt->canonical_json()) << context;
  EXPECT_EQ(incremental->digest(), rebuilt->digest()) << context;
}

/// Live node positions, maintained by the test beside the service.
using World = std::map<NodeId, util::Vec2>;

World world_of(const std::vector<std::pair<NodeId, util::Vec2>>& nodes) {
  return {nodes.begin(), nodes.end()};
}

void apply_to_world(World& world, const TopologyEvent& event) {
  if (event.kind == EventKind::kRevoke) {
    world.erase(event.node);
  } else {
    world[event.node] = event.position;
  }
}

std::vector<NodeId> live_ids(const World& world) {
  std::vector<NodeId> ids;
  for (const auto& [id, position] : world) ids.push_back(id);
  return ids;
}

struct OracleState {
  topology::NeighborList neighbors;
  topology::NeighborList validated;
};

/// The paper's definitions evaluated by brute force, with no grid, node
/// table or incremental rule: N(u) from every pair's distance, then v is
/// validated for u iff v ∈ N(u) and the full intersection count reaches t+1.
std::map<NodeId, OracleState> brute_force(const World& world, double radio_range,
                                          std::size_t t) {
  const double r2 = radio_range * radio_range;
  std::map<NodeId, OracleState> oracle;
  for (const auto& [u, pu] : world) {
    OracleState& state = oracle[u];
    for (const auto& [v, pv] : world) {
      if (v != u && util::distance_squared(pu, pv) <= r2) state.neighbors.push_back(v);
    }
  }
  for (auto& [u, state] : oracle) {
    for (const NodeId v : state.neighbors) {
      if (topology::intersection_size(state.neighbors, oracle.at(v).neighbors) >= t + 1) {
        state.validated.push_back(v);
      }
    }
  }
  return oracle;
}

void expect_matches_oracle(const Snapshot& snapshot, const World& world,
                           const std::string& context) {
  const auto oracle = brute_force(world, snapshot.radio_range(), snapshot.threshold());
  ASSERT_EQ(snapshot.node_count(), oracle.size()) << context;
  for (const auto& [id, state] : snapshot.nodes()) {
    const auto expected = oracle.find(id);
    ASSERT_NE(expected, oracle.end()) << context << ": node " << id;
    EXPECT_EQ(state->position, world.at(id)) << context << ": node " << id;
    ASSERT_EQ(state->neighbors, expected->second.neighbors) << context << ": node " << id;
    ASSERT_EQ(state->validated, expected->second.validated) << context << ": node " << id;
  }
}

/// Incremental snapshot == rebuild() == brute-force oracle of `world` (the
/// rebuild is compared byte for byte with the incremental snapshot, so one
/// oracle comparison covers both).
void expect_consistent(const ValidationService& service, const World& world,
                       const std::string& context) {
  expect_equivalent(service, context.c_str());
  expect_matches_oracle(*service.snapshot(), world, context);
}

TEST(ServiceEquivalenceTest, SeededTopologyMatchesRebuild) {
  const util::Rect field{{0.0, 0.0}, {200.0, 200.0}};
  ValidationService service({25.0, 2, {}});
  const auto initial = random_field(300, field, 11);
  ASSERT_TRUE(service.seed_topology(initial).ok);
  expect_consistent(service, world_of(initial), "after seed_topology");
}

TEST(ServiceEquivalenceTest, RandomizedSequencesMatchRebuild) {
  const util::Rect field{{0.0, 0.0}, {150.0, 150.0}};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ValidationService service({25.0, 2, {}});
    const auto initial = random_field(120, field, util::derive_seed(500, seed));
    service.seed_topology(initial);
    World world = world_of(initial);
    const auto events = random_events(250, field, live_ids(world), seed);
    for (std::size_t i = 0; i < events.size(); ++i) {
      ASSERT_TRUE(service.apply(events[i]).ok);
      apply_to_world(world, events[i]);
      expect_consistent(service, world, "seed " + std::to_string(seed) + " event " +
                                            std::to_string(i));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ServiceEquivalenceTest, BatchIngestionMatchesRebuild) {
  const util::Rect field{{0.0, 0.0}, {150.0, 150.0}};
  ValidationService service({25.0, 2, {}});
  const auto initial = random_field(150, field, 77);
  service.seed_topology(initial);
  World world = world_of(initial);
  const auto events = random_events(400, field, live_ids(world), 78);
  // One whole batch, then the same kind of stream in batches of 40 with a
  // check after each publish.
  EXPECT_EQ(service.apply_all(events), events.size());
  for (const TopologyEvent& event : events) apply_to_world(world, event);
  expect_consistent(service, world, "after apply_all batch");
  const auto more = random_events(400, field, live_ids(world), 79);
  for (std::size_t begin = 0; begin < more.size(); begin += 40) {
    const std::span<const TopologyEvent> batch(more.data() + begin, 40);
    EXPECT_EQ(service.apply_all(batch), batch.size());
    for (const TopologyEvent& event : batch) apply_to_world(world, event);
    expect_consistent(service, world, "after batch at " + std::to_string(begin));
    if (HasFatalFailure()) return;
  }
}

TEST(ServiceEquivalenceTest, OracleAgreesAtEveryThreshold) {
  // Seeding, rebuild and per-event ingestion against the brute-force oracle
  // at t = 0, 2 and 5, on a stream weighted toward the cases the Δ rule
  // splits finely: moves that stay inside the node's own disc (most of its
  // neighbors stay adjacent), deploys and moves to spots with no neighbor at
  // all, and ordinary deploys, moves and revokes.
  const util::Rect field{{0.0, 0.0}, {120.0, 120.0}};
  const double R = 25.0;
  for (const std::size_t t : {0u, 2u, 5u}) {
    ValidationService service({R, t, {}});
    const auto initial = random_field(110, field, util::derive_seed(900, t));
    ASSERT_TRUE(service.seed_topology(initial).ok);
    World world = world_of(initial);
    expect_consistent(service, world, "t=" + std::to_string(t) + " after seed");

    util::Rng rng(util::derive_seed(901, t));
    NodeId next_id = 1000;
    const auto pick_live = [&] {
      auto it = world.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.uniform_int(world.size())));
      return it->first;
    };
    for (int step = 0; step < 240; ++step) {
      TopologyEvent event;
      switch (rng.uniform_int(std::uint64_t{6})) {
        case 0:  // deploy anywhere in the field
          event = TopologyEvent::deploy(
              next_id++, {rng.uniform(0.0, field.hi.x), rng.uniform(0.0, field.hi.y)});
          break;
        case 1: {  // move within the node's own disc
          const NodeId id = pick_live();
          const util::Vec2 at = world.at(id);
          event = TopologyEvent::update(
              id, {at.x + rng.uniform(-R / 3, R / 3), at.y + rng.uniform(-R / 3, R / 3)});
          break;
        }
        case 2:  // deploy with no neighbor: a private spot far off the field
          event = TopologyEvent::deploy(next_id, {1000.0 + 100.0 * next_id, -500.0});
          ++next_id;
          break;
        case 3:  // move to a private spot, leaving every neighbor at once
          event = TopologyEvent::update(pick_live(), {-1000.0 - 100.0 * step, 700.0});
          break;
        case 4:
          event = TopologyEvent::update(
              pick_live(), {rng.uniform(0.0, field.hi.x), rng.uniform(0.0, field.hi.y)});
          break;
        default:
          event = TopologyEvent::revoke(pick_live());
          break;
      }
      ASSERT_TRUE(service.apply(event).ok) << step;
      apply_to_world(world, event);
      expect_consistent(service, world,
                        "t=" + std::to_string(t) + " step " + std::to_string(step));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ServiceEquivalenceTest, CountDroppingToExactlyTRejectsThePair) {
  // t+3 nodes packed inside one radio disc: every pair shares exactly the
  // t+1 others, so every pair is validated. Losing one common neighbor --
  // by revoke or by a move out of range -- leaves each remaining pair at
  // exactly t and must reject it; gaining one back restores t+1.
  const double R = 10.0;
  for (const std::size_t t : {0u, 2u, 5u}) {
    const std::string at_t = "t=" + std::to_string(t);
    ValidationService service({R, t, {}});
    World world;
    for (NodeId id = 1; id <= t + 3; ++id) {
      const TopologyEvent event =
          TopologyEvent::deploy(id, {0.5 * static_cast<double>(id), 0.25 * id});
      ASSERT_TRUE(service.apply(event).ok);
      apply_to_world(world, event);
    }
    expect_consistent(service, world, at_t + " full cluster");
    EXPECT_TRUE(service.validate(1, 2)) << at_t;
    EXPECT_EQ(service.snapshot()->validated_edge_count(), (t + 3) * (t + 2));

    const auto step = [&](const TopologyEvent& event, bool pair_validated,
                          const char* what) {
      ASSERT_TRUE(service.apply(event).ok) << at_t << " " << what;
      apply_to_world(world, event);
      expect_consistent(service, world, at_t + " " + what);
      EXPECT_EQ(service.validate(1, 2), pair_validated) << at_t << " " << what;
      EXPECT_EQ(service.validate(2, 1), pair_validated) << at_t << " " << what;
    };
    step(TopologyEvent::revoke(3), false, "revoke to exactly t");
    step(TopologyEvent::deploy(3, {1.0, 1.0}), true, "redeploy to t+1");
    step(TopologyEvent::update(3, {500.0, 500.0}), false, "move out to exactly t");
    step(TopologyEvent::update(3, {1.5, 0.5}), true, "move back to t+1");
    step(TopologyEvent::update(3, {2.0, 0.0}), true, "move inside the disc");
    // Seeding the same world takes the bulk path to the same answer.
    ValidationService seeded({R, t, {}});
    const std::vector<std::pair<NodeId, util::Vec2>> nodes(world.begin(), world.end());
    ASSERT_TRUE(seeded.seed_topology(nodes).ok);
    EXPECT_EQ(seeded.snapshot()->canonical_json(), service.snapshot()->canonical_json())
        << at_t;
  }
}

TEST(ServiceEquivalenceTest, GoldenDigestOfSeededWorldAndStream) {
  // Digests of a fixed world, recorded before the pair-once ingestion and
  // seeding rules replaced the per-node ones: both paths must still derive
  // exactly the same topology.
  const util::Rect field{{0.0, 0.0}, {250.0, 250.0}};
  ValidationService service({25.0, 2, {}});
  const auto initial = random_field(400, field, 1234);
  ASSERT_TRUE(service.seed_topology(initial).ok);
  EXPECT_EQ(service.snapshot()->digest(), 0x85fe51edu);
  EXPECT_EQ(service.snapshot()->validated_edge_count(), 4700u);
  for (const TopologyEvent& event :
       random_events(600, field, live_ids(world_of(initial)), 4321)) {
    ASSERT_TRUE(service.apply(event).ok);
  }
  EXPECT_EQ(service.snapshot()->digest(), 0x41dc0682u);
  EXPECT_EQ(service.snapshot()->validated_edge_count(), 8736u);
  EXPECT_EQ(service.rebuild()->digest(), service.snapshot()->digest());
}

TEST(ServiceEquivalenceTest, RejectedEventsLeaveTopologyEquivalent) {
  const util::Rect field{{0.0, 0.0}, {100.0, 100.0}};
  ValidationService service({25.0, 1, {}});
  service.seed_topology(random_field(50, field, 5));
  EXPECT_FALSE(service.apply(TopologyEvent::deploy(3, {1.0, 1.0})).ok);
  EXPECT_FALSE(service.apply(TopologyEvent::revoke(9999)).ok);
  EXPECT_FALSE(service.apply(TopologyEvent::update(9999, {1.0, 1.0})).ok);
  expect_equivalent(service, "after rejected events");
}

TEST(ServiceEquivalenceTest, ExtremeIdsMatchRebuild) {
  // Ids at the node table's chunk boundaries and near the top of the u32
  // range grow the trie from one level to seven mid-sequence, then prune it
  // again; every step must still match a from-scratch rebuild.
  const util::Rect field{{0.0, 0.0}, {60.0, 60.0}};
  const std::vector<NodeId> extreme = {0, 63, 64, 4095, 0x80000000u, 0xFFFFFFFEu};
  util::Rng rng(41);
  const auto somewhere = [&] {
    return util::Vec2{rng.uniform(field.lo.x, field.hi.x), rng.uniform(field.lo.y, field.hi.y)};
  };
  ValidationService service({25.0, 1, {}});
  for (NodeId id = 1; id <= 20; ++id) {
    ASSERT_TRUE(service.apply(TopologyEvent::deploy(id, somewhere())).ok);
  }
  EXPECT_EQ(service.snapshot()->nodes().levels(), 1u);
  for (const NodeId id : extreme) {
    ASSERT_TRUE(service.apply(TopologyEvent::deploy(id, somewhere())).ok) << id;
    expect_equivalent(service, "after deploying an extreme id");
  }
  EXPECT_EQ(service.snapshot()->nodes().levels(), 7u);
  for (const NodeId id : extreme) {
    ASSERT_TRUE(service.apply(TopologyEvent::update(id, somewhere())).ok) << id;
  }
  expect_equivalent(service, "after moving the extreme ids");

  std::vector<NodeId> listed;
  for (const auto& [id, state] : service.snapshot()->nodes()) listed.push_back(id);
  EXPECT_TRUE(std::is_sorted(listed.begin(), listed.end()));
  EXPECT_EQ(listed.size(), 26u);
  EXPECT_EQ(listed.back(), 0xFFFFFFFEu);

  for (const NodeId id : extreme) {
    ASSERT_TRUE(service.apply(TopologyEvent::revoke(id)).ok) << id;
    expect_equivalent(service, "after revoking an extreme id");
  }
  EXPECT_EQ(service.node_count(), 20u);

  // The same ids through the bulk path.
  ValidationService seeded({25.0, 1, {}});
  std::vector<std::pair<NodeId, util::Vec2>> initial;
  for (const NodeId id : extreme) initial.emplace_back(id, somewhere());
  for (NodeId id = 1; id <= 20; ++id) initial.emplace_back(id, somewhere());
  ASSERT_TRUE(seeded.seed_topology(initial).ok);
  expect_equivalent(seeded, "after seeding extreme ids");
}

TEST(ServiceEquivalenceTest, DenseClusterStressMatchesRebuild) {
  // Everything inside a couple of radio ranges: every event touches a large
  // fraction of the network, exercising the pair-recheck pass heavily.
  const util::Rect field{{0.0, 0.0}, {40.0, 40.0}};
  ValidationService service({25.0, 3, {}});
  const auto initial = random_field(80, field, 21);
  service.seed_topology(initial);
  World world = world_of(initial);
  const auto events = random_events(300, field, live_ids(world), 22);
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE(service.apply(events[i]).ok);
    apply_to_world(world, events[i]);
    expect_consistent(service, world, "dense event " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
}

TEST(ServiceEquivalenceTest, FaultPlanDrivenSequenceMatchesRebuild) {
  const util::Rect field{{0.0, 0.0}, {120.0, 120.0}};
  ValidationService service({25.0, 2, {}});
  const auto initial = random_field(100, field, 31);
  service.seed_topology(initial);

  // Crash a handful of nodes, reboot some of them later; delivery actions
  // are topology-neutral and must be skipped by the projection.
  fault::FaultPlan plan;
  plan.seed = 99;
  for (NodeId node : {5u, 17u, 42u, 83u}) {
    fault::FaultAction crash;
    crash.kind = fault::ActionKind::kCrash;
    crash.node = node;
    crash.at_ns = 1'000 * node;
    plan.actions.push_back(crash);
  }
  for (NodeId node : {17u, 42u}) {
    fault::FaultAction reboot;
    reboot.kind = fault::ActionKind::kReboot;
    reboot.node = node;
    reboot.at_ns = 1'000'000 + 1'000 * node;
    plan.actions.push_back(reboot);
  }
  fault::FaultAction drop;  // no topology effect
  drop.kind = fault::ActionKind::kDrop;
  plan.actions.push_back(drop);

  const auto events = events_from_fault_plan(plan, field);
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events.front().kind, EventKind::kRevoke);
  for (const TopologyEvent& event : events) {
    ASSERT_TRUE(service.apply(event).ok) << event.node;
  }
  EXPECT_EQ(service.node_count(), initial.size() - 2);
  expect_equivalent(service, "after fault-plan projection");

  // The projection itself is deterministic (reboot positions derive from
  // the plan seed).
  EXPECT_TRUE(events == events_from_fault_plan(plan, field));
}

}  // namespace
}  // namespace snd::service
