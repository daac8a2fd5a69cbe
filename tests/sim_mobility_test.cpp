// Mobility under the spatial index: sustained Network::set_position churn
// (random-waypoint walks over 120 devices) must leave the grid-indexed
// receiver resolution bit-identical to the linear field scan. Plus the
// snapshot-semantics regression: a device crossing a grid-cell boundary
// while a packet is in the air neither gains nor loses that delivery --
// transmit resolves its receiver set eagerly at transmit time in both the
// grid and linear paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adversary/mobility.h"
#include "core/deployment_driver.h"
#include "forced_tier.h"
#include "obs/sink.h"
#include "sim/network.h"

namespace snd::sim {
namespace {

/// Drops the receiver-resolution-dependent accounting from a trace summary:
/// the grid enumerates a 3x3-block candidate superset while the linear scan
/// enumerates the whole field, so kOutOfRange (and the totals folding it in)
/// legitimately differ. Everything else must match bit for bit.
std::string strip_resolution_dependent(std::string json) {
  for (const std::string_view key : {"\"dropped\":", "\"events\":", "\"out_of_range\":"}) {
    const std::size_t at = json.find(key);
    if (at == std::string::npos) continue;
    std::size_t end = at + key.size();
    while (end < json.size() && json[end] >= '0' && json[end] <= '9') ++end;
    json.erase(at, end - at);
  }
  return json;
}

struct Snapshot {
  std::string summary_json;
  std::vector<std::pair<NodeId, topology::NeighborList>> tentative;
  std::vector<std::pair<NodeId, topology::NeighborList>> functional;
  std::vector<util::Vec2> positions;
  std::uint64_t moves = 0;

  bool operator==(const Snapshot& other) const {
    if (summary_json != other.summary_json || tentative != other.tentative ||
        functional != other.functional || moves != other.moves ||
        positions.size() != other.positions.size()) {
      return false;
    }
    for (std::size_t i = 0; i < positions.size(); ++i) {
      if (positions[i].x != other.positions[i].x || positions[i].y != other.positions[i].y) {
        return false;
      }
    }
    return true;
  }
};

/// 121 nodes discovering neighbors while 120 of them walk: every step is a
/// set_position call racing live broadcast traffic. `spatial_index` toggles
/// grid vs linear receiver resolution.
Snapshot run_walking_deployment(bool spatial_index) {
  Snapshot snap;
  {
    core::DeploymentConfig config;
    config.field = {{0.0, 0.0}, {200.0, 200.0}};
    config.radio_range = 50.0;
    config.protocol.threshold_t = 3;
    config.seed = 77;
    core::SndDeployment deployment(config);
    deployment.network().set_spatial_index_enabled(spatial_index);

    deployment.deploy_round(121);
    std::vector<DeviceId> movers;
    for (DeviceId d = 0; d < 120; ++d) movers.push_back(d);
    // 3 m hops: tens of 50 m cell crossings over the walk, all mid-traffic.
    adversary::WaypointMobility walk(deployment.network(), config.field, std::move(movers),
                                     60.0, Time::milliseconds(50), 20, 9001);
    walk.schedule();
    deployment.run();

    snap.moves = walk.moves_applied();
    snap.summary_json = deployment.network().trace_summary().to_json();
    for (const core::SndNode* agent : deployment.agents()) {
      snap.tentative.emplace_back(agent->identity(), agent->tentative_neighbors());
      snap.functional.emplace_back(agent->identity(), agent->functional_neighbors());
    }
    for (const Device& d : deployment.network().devices()) snap.positions.push_back(d.position);
  }
  return snap;
}

TEST(MobilitySweepTest, GridMatchesLinearScanUnderChurn) {
  Snapshot grid = run_walking_deployment(true);
  Snapshot linear = run_walking_deployment(false);
  ASSERT_GT(grid.moves, 1000u) << "walk degenerate -- the sweep exercised no churn";
  grid.summary_json = strip_resolution_dependent(grid.summary_json);
  linear.summary_json = strip_resolution_dependent(linear.summary_json);
  EXPECT_EQ(grid.summary_json, linear.summary_json);
  EXPECT_TRUE(grid == linear);
}

// -- Mid-airtime set_position (snapshot semantics) --------------------------

struct AirtimeOutcome {
  int moved_out_received = 0;
  int moved_in_received = 0;
};

/// A transmits while B (in range, about to leave) and C (out of range,
/// about to arrive) relocate mid-airtime, both crossing grid-cell
/// boundaries. Receiver sets are resolved when the packet hits the air, so
/// B must still receive and C must not, grid or no grid.
AirtimeOutcome run_mid_airtime_move(bool spatial_index) {
  Network net(std::make_unique<UnitDiskModel>(10.0), ChannelConfig{}, 5);
  net.set_spatial_index_enabled(spatial_index);
  const DeviceId a = net.add_device(1, {5.0, 5.0});
  const DeviceId b = net.add_device(2, {12.0, 5.0});   // in range, cell (1,0)
  const DeviceId c = net.add_device(3, {45.0, 5.0});   // far out of range
  AirtimeOutcome outcome;
  net.set_receiver(b, [&outcome](const Packet&) { ++outcome.moved_out_received; });
  net.set_receiver(c, [&outcome](const Packet&) { ++outcome.moved_in_received; });

  net.transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = {}},
               obs::Phase::kHello);
  // The packet is in the air (airtime ~= 600 us at 250 kbps plus processing
  // delay); both movers relocate across cell boundaries well before any
  // delivery event fires.
  net.scheduler().schedule_at(Time::microseconds(1), [&net, b, c]() {
    net.set_position(b, {95.0, 95.0});  // leaves range AND cell
    net.set_position(c, {12.0, 5.0});   // arrives next to the sender
  });
  net.scheduler().run();

  // A later transmission sees the new positions: C hears, B does not.
  net.transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = {}},
               obs::Phase::kHello);
  net.scheduler().run();
  return outcome;
}

TEST(MidAirtimeMoveTest, InFlightDeliveriesUseTransmitTimePositions) {
  const AirtimeOutcome grid = run_mid_airtime_move(true);
  // First transmission: B (in range at transmit time) receives even though
  // it sits across the field at delivery time; C gets nothing. Second
  // transmission flips them.
  EXPECT_EQ(grid.moved_out_received, 1);
  EXPECT_EQ(grid.moved_in_received, 1);

  const AirtimeOutcome linear = run_mid_airtime_move(false);
  EXPECT_EQ(linear.moved_out_received, grid.moved_out_received);
  EXPECT_EQ(linear.moved_in_received, grid.moved_in_received);
}

// -- Event-order golden -------------------------------------------------------

/// FNV-1a over the JSON-lines form of every event, newline-terminated: the
/// exact bytes `--trace-json` writes for the same run.
class DigestSink final : public obs::Sink {
 public:
  void on_event(const obs::Event& event) override {
    const std::string line = obs::JsonLinesSink::to_json(event) + "\n";
    for (const char c : line) {
      hash_ = (hash_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    bytes_ += line.size();
    ++events_;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
  std::uint64_t bytes_ = 0;
  std::uint64_t events_ = 0;
};

// A fig3-style trial (center node plus a uniform round in a 100 m field,
// R = 50 m) with a quarter of the devices walking and two crash/reboot
// cycles, so moves, cancels of pending and of already-fired events, and
// same-timestamp deliveries all interleave in the scheduler. Every event is
// hashed in emission order. The digest was recorded before the scheduler's
// heap moved from a binary heap of inline actions to a 4-ary heap of keys
// over a slot pool: the (time, id) order is total, so no queue layout may
// change a single byte of the stream. Nor may the SIMD tier: the stream is
// checked at every tier up to the CPU's.
void expect_walking_fig3_stream() {
  core::DeploymentConfig config;
  config.field = {{0.0, 0.0}, {100.0, 100.0}};
  config.radio_range = 50.0;
  config.protocol.threshold_t = 4;
  config.seed = 20090622;
  core::SndDeployment deployment(config);
  auto sink = std::make_shared<DigestSink>();
  deployment.network().tracer() = obs::Tracer(obs::TraceLevel::kEvents, sink);

  std::vector<NodeId> pool{deployment.deploy_node_at(config.field.center())};
  const std::vector<NodeId> round = deployment.deploy_round(59);
  pool.insert(pool.end(), round.begin(), round.end());
  std::vector<DeviceId> movers;
  for (DeviceId d = 0; d < 60; d += 4) movers.push_back(d);
  adversary::WaypointMobility walk(deployment.network(), config.field, std::move(movers), 40.0,
                                   Time::milliseconds(20), 30, 17);
  walk.schedule();
  adversary::ChurnSchedule churn(deployment, pool, 6, 2, Time::milliseconds(120),
                                 Time::milliseconds(250), Time::milliseconds(90), 23);
  churn.schedule();
  deployment.run();

  EXPECT_EQ(walk.moves_applied(), 436u);
  EXPECT_EQ(churn.crashes(), 12u);
  EXPECT_EQ(churn.reboots(), 12u);
  EXPECT_EQ(deployment.network().scheduler().executed(), 11816u);
  EXPECT_EQ(sink->events_, 302248u);
  EXPECT_EQ(sink->bytes_, 25769743u);
  EXPECT_EQ(sink->hash_, 0xe24dedb8ea820df7ULL);
}

TEST(EventOrderGoldenTest, WalkingFig3TrialStreamIsUnchanged) {
  for (const util::SimdTier tier : test::kAllTiers) {
    const test::ForcedTier forced(tier);
    SCOPED_TRACE(test::tier_label(tier));
    expect_walking_fig3_stream();
  }
}

}  // namespace
}  // namespace snd::sim
