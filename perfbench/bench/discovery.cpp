// Discovery workloads: full neighbor discovery on a core::SndDeployment,
// one trial per round, driven through the public deployment and scheduler
// calls only.
//
//   discovery_dense          the paper's Fig. 4 cell at its top density:
//                            400 nodes on 100 x 100 m, R = 50 m, t = 30, one
//                            node pinned at the centre. Per-delivery work
//                            (receiver resolution, handlers, crypto) rules.
//   discovery_sparse_mobile  the bench/scale setting at 20k nodes, mean
//                            degree 10, one Hello, t = 1, every 10th device
//                            on a random-waypoint walk. Per-event work
//                            (scheduler depth, dispatch) and invalidation of
//                            anything cached per position rule.
//
// The untraced pass calls SndDeployment::run(). The traced pass drives the
// same scheduler with Scheduler::step() and records one span per step,
// bucketed by what the step did according to public counter deltas.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "adversary/mobility.h"
#include "bench.h"
#include "core/deployment_driver.h"
#include "crypto/sha256.h"
#include "topology/graph.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace snd;

struct Shape {
  std::size_t nodes = 0;
  double side_m = 0.0;
  std::size_t threshold_t = 0;
  /// Fig. 4 style: node 0 pinned at the centre, accuracy measured there.
  bool pinned_center = false;
  /// bench/scale style protocol: one Hello, no record updates.
  bool single_hello = false;
  /// Every mover_every-th device walks; 0 disables mobility.
  std::size_t mover_every = 0;
  std::uint64_t base_seed = 0;
  /// Seconds one untraced full-size trial takes on the reference host; sets
  /// how many trials a run of --seconds makes.
  double round_s = 0.0;
};

constexpr double kRange = 50.0;

Shape shape_of(bool sparse_mobile, Size size) {
  Shape shape;
  if (!sparse_mobile) {
    shape.nodes = size == Size::kFull ? 400 : 40;
    shape.side_m = 100.0;
    shape.threshold_t = size == Size::kFull ? 30 : 3;
    shape.pinned_center = true;
    shape.base_seed = 0xD15C0DE5;
    shape.round_s = 6.0;
  } else {
    shape.nodes = size == Size::kFull ? 20'000 : 400;
    // Mean degree 10: n * pi * R^2 / side^2 = 10.
    shape.side_m = kRange * std::sqrt(static_cast<double>(shape.nodes) * M_PI / 10.0);
    shape.threshold_t = 1;
    shape.single_hello = true;
    shape.mover_every = 10;
    shape.base_seed = 0x5CA1AB1E;
    shape.round_s = 7.0;
  }
  return shape;
}

struct TrialResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t pending_peak = 0;
  Counts counts;
};

/// Step loop of the traced pass: one span per Scheduler::step, bucketed by
/// the public counters the step moved.
void traced_run(sim::Network& network, SpanLog& log, std::uint32_t parent, std::uint32_t trial,
                std::uint64_t& pending_peak) {
  sim::Scheduler& scheduler = network.scheduler();
  const sim::Metrics& metrics = network.metrics();
  for (;;) {
    const std::uint64_t messages = metrics.total().messages;
    const std::uint64_t deliveries = metrics.deliveries();
    const std::uint64_t hashes = crypto::hash_op_count();
    const std::uint64_t start = log.now_ns();
    if (!scheduler.step()) break;
    const std::uint64_t end = log.now_ns();
    const SpanName bucket = metrics.total().messages != messages ? SpanName::kStepTransmit
                            : metrics.deliveries() != deliveries ? SpanName::kStepDeliver
                                                                 : SpanName::kStepTimer;
    log.add(bucket, parent, trial, start, end,
            static_cast<std::uint32_t>(crypto::hash_op_count() - hashes));
    pending_peak = std::max(pending_peak, scheduler.pending());
  }
}

TrialResult run_trial(const Shape& shape, std::uint64_t pool, SpanLog* log,
                      std::uint32_t trial) {
  core::DeploymentConfig config;
  config.field = {{0.0, 0.0}, {shape.side_m, shape.side_m}};
  config.radio_range = kRange;
  config.protocol.threshold_t = shape.threshold_t;
  if (shape.single_hello) {
    config.protocol.hello_repeats = 1;
    config.protocol.max_updates = 0;
  }
  config.seed = util::derive_seed(shape.base_seed, pool);

  TrialResult result;
  std::uint32_t root = 0;
  const auto span = [&](SpanName name) {
    return log != nullptr ? log->open(name, root, trial) : 0;
  };
  const auto close = [&](std::uint32_t id) {
    if (log != nullptr) log->close(id);
  };
  if (log != nullptr) root = log->open(SpanName::kTrial, 0, trial);

  const std::uint64_t hash_start = crypto::hash_op_count();
  const Clock::time_point setup_start = Clock::now();
  std::uint32_t id = span(SpanName::kConstruct);
  core::SndDeployment deployment(config);
  close(id);

  id = span(SpanName::kDeployRound);
  std::optional<NodeId> center;
  if (shape.pinned_center) center = deployment.deploy_node_at(config.field.center());
  deployment.deploy_round(shape.nodes - (center ? 1 : 0));
  close(id);

  std::unique_ptr<adversary::WaypointMobility> mobility;
  if (shape.mover_every != 0) {
    id = span(SpanName::kMobility);
    std::vector<sim::DeviceId> movers;
    for (sim::DeviceId d = 0; d < deployment.network().device_count(); d += shape.mover_every) {
      movers.push_back(d);
    }
    // 8 m/s in 20 ms steps, 25 steps: the walk overlaps the Hello phase.
    mobility = std::make_unique<adversary::WaypointMobility>(
        deployment.network(), config.field, std::move(movers), 8.0,
        sim::Time::milliseconds(20), 25, util::derive_seed(config.seed, 0x30B1));
    mobility->schedule();
    close(id);
  }
  const Clock::time_point run_start = Clock::now();
  const std::uint64_t hash_setup = crypto::hash_op_count() - hash_start;

  if (log == nullptr) {
    deployment.run();
  } else {
    id = span(SpanName::kRun);
    traced_run(deployment.network(), *log, id, trial, result.pending_peak);
    close(id);
  }
  const Clock::time_point run_end = Clock::now();
  const std::uint64_t hash_run = crypto::hash_op_count() - hash_start - hash_setup;
  close(root);
  result.setup_s = seconds_between(setup_start, run_start);
  result.run_s = seconds_between(run_start, run_end);

  // Correctness record, outside the timed sections.
  const sim::Network& network = deployment.network();
  const obs::TraceSummary summary = network.trace_summary();
  std::uint64_t functional_edges = 0;
  for (const core::SndNode* agent : deployment.agents()) {
    functional_edges += agent->functional_neighbors().size();
  }
  result.events = deployment.network().scheduler().executed();
  result.counts = {
      {"nodes", network.device_count()},
      {"events", result.events},
      {"deliveries", network.metrics().deliveries()},
      {"candidates", network.metrics().candidates()},
      {"tx_messages", network.metrics().total().messages},
      {"functional_edges", functional_edges},
      {"accepts_threshold", summary.accepts[static_cast<std::size_t>(obs::AcceptVia::kThreshold)]},
      {"rejects_stale_version",
       summary.rejects[static_cast<std::size_t>(obs::RejectReason::kStaleVersion)]},
      {"hash_ops_setup", hash_setup},
      {"hash_ops_run", hash_run},
      {"moves", mobility ? mobility->moves_applied() : 0},
  };
  if (center) {
    // Fig. 4's accuracy: share of the centre node's radio neighbours that
    // made its functional list.
    const core::SndNode* agent = deployment.agent(*center);
    std::uint64_t actual = 0;
    std::uint64_t validated = 0;
    for (const sim::Device& d : network.devices()) {
      if (d.identity == *center || !network.link(agent->device(), d.id)) continue;
      ++actual;
      if (topology::contains(agent->functional_neighbors(), d.identity)) ++validated;
    }
    result.counts.emplace_back("center_actual", actual);
    result.counts.emplace_back("center_validated", validated);
  }
  return result;
}

}  // namespace

void run_discovery(Report& report, bool sparse_mobile) {
  const Options& options = report.options();
  const Shape shape = shape_of(sparse_mobile, options.size);

  std::vector<TrialResult> untraced;
  std::vector<TrialResult> traced;
  SpanLog log;
  double rss_mb = 0.0;
  repeat_rounds(options, shape.round_s, [&](std::size_t k) {
    const std::uint64_t pool = pool_index(options, k);
    const bool traced_before = traced_first(options, k);
    const auto traced_trial = [&] {
      traced.push_back(run_trial(shape, pool, &log, static_cast<std::uint32_t>(k + 1)));
    };
    if (traced_before) traced_trial();
    untraced.push_back(run_trial(shape, pool, nullptr, 0));
    if (k == 0) rss_mb = peak_rss_mb();
    report.trial(k, pool, "untraced", untraced.back().counts, untraced.back().run_s);
    if (!options.trace) return;
    if (!traced_before) traced_trial();
    report.trial(k, pool, "traced", traced.back().counts, traced.back().run_s);
    report.attempt(traced.back().counts == untraced.back().counts,
                   "traced trial counts differ from the untraced replay");
  });

  const std::size_t n = untraced.size();
  std::vector<double> setups;
  std::vector<double> runs;
  double run_s = 0.0;
  std::uint64_t events = 0;
  for (const TrialResult& r : untraced) {
    setups.push_back(r.setup_s);
    runs.push_back(r.run_s);
    run_s += r.run_s;
    events += r.events;
  }
  // Over the median trial: a slow or fast stretch of the shared host moves
  // the median of the run's trials less than their total.
  const double nodes_per_s = static_cast<double>(shape.nodes) / Report::percentile(runs, 50.0);

  if (!options.trace) {
    report.metric("setup_s", Report::percentile(setups, 50.0), "s", n);
    report.metric("ops_per_s", nodes_per_s, "1/s", n);
    report.metric("peak_rss_mb", rss_mb, "MB", 1);
    return;
  }

  // Per-layer figures come from the run's first trial (traced as trial 1),
  // so they do not depend on --seconds.
  const auto count = [&](std::string_view key) { return count_of(untraced.front().counts, key); };
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  for (const TrialResult& r : untraced) untraced_s.push_back(r.run_s);
  for (const TrialResult& r : traced) traced_s.push_back(r.run_s);

  report.metric("sim.events", count("events"), "count", 1);
  report.metric("sim.deliveries", count("deliveries"), "count", 1);
  report.metric("sim.candidates", count("candidates"), "count", 1);
  report.metric("sim.tx_messages", count("tx_messages"), "count", 1);
  report.metric("sim.moves", count("moves"), "count", 1);
  report.metric("sim.resolve_useful_ratio", count("deliveries") / count("candidates"), "ratio", 1);
  report.metric("sim.host_ns_per_event", run_s * 1e9 / static_cast<double>(events), "ns", n);
  report.metric("sim.pending_peak", static_cast<double>(traced.front().pending_peak), "count", 1);
  report.span_buckets(log, 1, {{SpanName::kStepTransmit, "sim.step.transmit"},
                               {SpanName::kStepDeliver, "sim.step.deliver"},
                               {SpanName::kStepTimer, "sim.step.timer"}});
  report.metric("core.functional_edges", count("functional_edges"), "count", 1);
  report.metric("core.accepts.threshold", count("accepts_threshold"), "count", 1);
  report.metric("core.rejects.stale_version", count("rejects_stale_version"), "count", 1);
  report.metric("core.center_accuracy",
                shape.pinned_center ? count("center_validated") / count("center_actual") : 0.0,
                "ratio", shape.pinned_center ? 1 : 0);
  report.metric("crypto.hash_ops.setup", count("hash_ops_setup"), "count", 1);
  report.metric("crypto.hash_ops.run", count("hash_ops_run"), "count", 1);
  report.metric("crypto.hash_ops_per_delivery", count("hash_ops_run") / count("deliveries"),
                "ratio", 1);
  report.metric("trace.overhead_ratio", overhead_ratio(untraced_s, traced_s), "ratio", n - 1);
  report.write_spans(log);
}

}  // namespace perfbench
