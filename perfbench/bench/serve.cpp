// serve_mixed: the validation service in the base-station role (paper §2),
// driven in process by one closed-loop caller.
//
// Each round bootstraps 100k nodes (mean tentative degree 20, t = 2) with
// seed_topology, then issues 200k F(u, v) queries one at a time with one
// random_events event (deploy / update / revoke at 2:1:1) before every
// 100th query. Reads and writes share one snapshot, so a faster ingest that
// slows queries still shows in ops_per_s.
//
// The untraced pass times every query and every apply, as bench/serve_qps
// does. The traced pass splits each query into its two public calls,
// snapshot() and Snapshot::validate(), and times apply by event kind.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "crypto/sha256.h"
#include "service/events.h"
#include "service/validation_service.h"
#include "topology/graph.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace snd;

constexpr std::uint64_t kBaseSeed = 0x5E87E;

struct Shape {
  std::size_t nodes = 0;
  std::size_t queries = 0;
  std::size_t event_every = 100;
  double degree = 20.0;
  double radio_range = 50.0;
  std::size_t threshold_t = 2;
  /// Seconds one untraced full-size round takes on the reference host
  /// (seed_topology, load generation and the query loop); sets how many
  /// rounds a run of --seconds makes.
  double round_s = 9.0;
};

Shape shape_of(Size size) {
  Shape shape;
  shape.nodes = size == Size::kFull ? 100'000 : 2'000;
  shape.queries = size == Size::kFull ? 200'000 : 5'000;
  return shape;
}

struct Inputs {
  util::Rect field;
  std::vector<std::pair<NodeId, util::Vec2>> bootstrap;
  std::vector<std::pair<NodeId, NodeId>> queries;
  std::vector<service::TopologyEvent> events;
};

/// Bootstrap positions and event stream come from the round seed alone.
Inputs make_bootstrap(const Shape& shape, std::uint64_t seed) {
  Inputs inputs;
  // Mean tentative degree D needs one node per pi R^2 / D square metres.
  const double width = std::sqrt(static_cast<double>(shape.nodes) * M_PI *
                                 shape.radio_range * shape.radio_range / shape.degree);
  inputs.field = {{0.0, 0.0}, {width, width}};
  util::Rng rng(seed);
  inputs.bootstrap.reserve(shape.nodes);
  for (std::size_t i = 0; i < shape.nodes; ++i) {
    inputs.bootstrap.emplace_back(static_cast<NodeId>(i),
                                  util::Vec2{rng.uniform(0.0, width), rng.uniform(0.0, width)});
  }
  return inputs;
}

/// Half the queries ask about a pair from one node's tentative list (the
/// path that usually accepts), the rest about uniform pairs.
void make_load(const Shape& shape, const service::ValidationService& service,
               std::uint64_t seed, Inputs& inputs) {
  util::Rng rng(util::derive_seed(seed, 0xC0FFEE));
  const auto snapshot = service.snapshot();
  std::vector<NodeId> live;
  live.reserve(snapshot->node_count());
  for (const auto& [id, state] : snapshot->nodes()) live.push_back(id);
  inputs.queries.reserve(shape.queries);
  for (std::size_t i = 0; i < shape.queries; ++i) {
    const NodeId u = live[rng.uniform_int(live.size())];
    NodeId v = live[rng.uniform_int(live.size())];
    if (rng.chance(0.5)) {
      const service::NodeState* state = snapshot->find(u);
      if (state != nullptr && !state->neighbors.empty()) {
        v = state->neighbors[rng.uniform_int(state->neighbors.size())];
      }
    }
    inputs.queries.emplace_back(u, v);
  }
  const std::size_t events = (shape.queries + shape.event_every - 1) / shape.event_every;
  inputs.events =
      service::random_events(events, inputs.field, std::move(live), util::derive_seed(seed, 1));
}

SpanName apply_span(service::EventKind kind) {
  switch (kind) {
    case service::EventKind::kDeploy: return SpanName::kApplyDeploy;
    case service::EventKind::kUpdate: return SpanName::kApplyUpdate;
    case service::EventKind::kRevoke: return SpanName::kApplyRevoke;
  }
  return SpanName::kApplyDeploy;
}

/// Tentative list of `id` in the current snapshot; empty when not live.
topology::NeighborList neighbors_of(const service::ValidationService& service, NodeId id) {
  const service::NodeState* state = service.snapshot()->find(id);
  return state != nullptr ? state->neighbors : topology::NeighborList{};
}

struct RoundResult {
  double setup_s = 0.0;
  double loop_s = 0.0;
  double rebuild_s = 0.0;
  std::vector<double> query_us;
  std::vector<double> ingest_us;
  /// Live nodes within R of each event's position(s), traced pass only.
  std::vector<double> touched;
  Counts counts;
};

RoundResult run_round(const Shape& shape, std::uint64_t pool, bool gate, Report& report,
                      SpanLog* log, std::uint32_t trial) {
  const std::uint64_t seed = util::derive_seed(kBaseSeed, pool);
  Inputs inputs = make_bootstrap(shape, seed);
  service::ServiceConfig config;
  config.radio_range = shape.radio_range;
  config.threshold_t = shape.threshold_t;

  RoundResult result;
  const std::uint64_t hash_start = crypto::hash_op_count();
  const std::uint32_t root = log != nullptr ? log->open(SpanName::kRound, 0, trial) : 0;
  service::ValidationService service(config);
  std::uint32_t id = log != nullptr ? log->open(SpanName::kSeedTopology, root, trial) : 0;
  const Clock::time_point setup_start = Clock::now();
  service.seed_topology(inputs.bootstrap);
  result.setup_s = seconds_between(setup_start, Clock::now());
  if (log != nullptr) log->close(id);
  const std::uint64_t hash_setup = crypto::hash_op_count() - hash_start;
  make_load(shape, service, seed, inputs);

  std::uint64_t accepted = 0;
  std::uint64_t applied = 0;
  std::size_t next_event = 0;
  if (log == nullptr) {
    result.query_us.reserve(inputs.queries.size());
    result.ingest_us.reserve(inputs.events.size());
    const Clock::time_point loop_start = Clock::now();
    for (std::size_t i = 0; i < inputs.queries.size(); ++i) {
      if (i % shape.event_every == 0 && next_event < inputs.events.size()) {
        const Clock::time_point t0 = Clock::now();
        const service::ApplyResult applied_ok = service.apply(inputs.events[next_event++]);
        result.ingest_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
        report.attempt(applied_ok.ok, applied_ok.error);
        applied += applied_ok.ok ? 1 : 0;
      }
      const auto [u, v] = inputs.queries[i];
      const Clock::time_point t0 = Clock::now();
      const bool verdict = service.validate(u, v);
      result.query_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      accepted += verdict ? 1 : 0;
    }
    result.loop_s = seconds_between(loop_start, Clock::now());
  } else {
    const std::uint32_t loop = log->open(SpanName::kLoop, root, trial);
    const Clock::time_point loop_start = Clock::now();
    for (std::size_t i = 0; i < inputs.queries.size(); ++i) {
      if (i % shape.event_every == 0 && next_event < inputs.events.size()) {
        const service::TopologyEvent& event = inputs.events[next_event++];
        // Touched nodes, counted from public snapshots outside the span:
        // the node's tentative lists before and after cover every live
        // node within R of the old and the new position.
        const topology::NeighborList before = neighbors_of(service, event.node);
        const std::uint64_t t0 = log->now_ns();
        const service::ApplyResult applied_ok = service.apply(event);
        log->add(apply_span(event.kind), loop, trial, t0, log->now_ns());
        report.attempt(applied_ok.ok, applied_ok.error);
        applied += applied_ok.ok ? 1 : 0;
        const topology::NeighborList after = neighbors_of(service, event.node);
        topology::NeighborList both;
        std::set_union(before.begin(), before.end(), after.begin(), after.end(),
                       std::back_inserter(both));
        result.touched.push_back(static_cast<double>(both.size()));
      }
      const auto [u, v] = inputs.queries[i];
      const std::uint64_t t0 = log->now_ns();
      const std::shared_ptr<const service::Snapshot> snapshot = service.snapshot();
      const std::uint64_t t1 = log->now_ns();
      const bool verdict = snapshot->validate(u, v);
      const std::uint64_t t2 = log->now_ns();
      const std::uint32_t query = log->add(SpanName::kQuery, loop, trial, t0, t2);
      log->add(SpanName::kSnapshot, query, trial, t0, t1);
      log->add(SpanName::kLookup, query, trial, t1, t2);
      accepted += verdict ? 1 : 0;
    }
    result.loop_s = seconds_between(loop_start, Clock::now());
    log->close(loop);
  }
  if (log != nullptr) log->close(root);
  const std::uint64_t hash_run = crypto::hash_op_count() - hash_start - hash_setup;

  // Correctness record, outside the timed sections.
  const std::shared_ptr<const service::Snapshot> snapshot = service.snapshot();
  result.counts = {
      {"nodes", snapshot->node_count()},
      {"queries", inputs.queries.size()},
      {"events_applied", applied},
      {"accepted", accepted},
      {"validated_edges", snapshot->validated_edge_count()},
      {"digest", snapshot->digest()},
      {"hash_ops_setup", hash_setup},
      {"hash_ops_run", hash_run},
  };
  if (gate) {
    // Equivalence gate: the incrementally maintained snapshot must
    // serialize exactly like a from-scratch rebuild of the same world.
    const Clock::time_point t0 = Clock::now();
    const std::shared_ptr<const service::Snapshot> rebuilt = service.rebuild();
    result.rebuild_s = seconds_between(t0, Clock::now());
    report.attempt(snapshot->canonical_json() == rebuilt->canonical_json(),
                   "incremental snapshot differs from rebuild()");
  }
  return result;
}

std::vector<double> joined(const std::vector<RoundResult>& rounds,
                           std::vector<double> RoundResult::*field) {
  std::vector<double> all;
  for (const RoundResult& r : rounds) all.insert(all.end(), (r.*field).begin(), (r.*field).end());
  return all;
}

void report_latency(Report& report, const std::string& prefix, const std::vector<double>& us) {
  report.metric(prefix + "p50_us", Report::percentile(us, 50.0), "us", us.size());
  report.metric(prefix + "p99_us", Report::percentile(us, 99.0), "us", us.size());
}

}  // namespace

void run_serve(Report& report) {
  const Options& options = report.options();
  const Shape shape = shape_of(options.size);

  std::vector<RoundResult> untraced;
  std::vector<RoundResult> traced;
  SpanLog log;
  double rss_mb = 0.0;
  repeat_rounds(options, shape.round_s, [&](std::size_t k) {
    const std::uint64_t pool = pool_index(options, k);
    const bool traced_before = traced_first(options, k);
    const auto traced_round = [&] {
      traced.push_back(
          run_round(shape, pool, false, report, &log, static_cast<std::uint32_t>(k + 1)));
    };
    if (traced_before) traced_round();
    // The rebuild gate runs on the first round only: every round's digest
    // is also checked against the recorded one, which was taken from a
    // state that passed the gate.
    untraced.push_back(run_round(shape, pool, k == 0, report, nullptr, 0));
    if (k == 0) rss_mb = peak_rss_mb();
    report.trial(k, pool, "untraced", untraced.back().counts, untraced.back().loop_s);
    if (!options.trace) return;
    if (!traced_before) traced_round();
    report.trial(k, pool, "traced", traced.back().counts, traced.back().loop_s);
    report.attempt(traced.back().counts == untraced.back().counts,
                   "traced round counts differ from the untraced replay");
  });

  const std::size_t n = untraced.size();
  std::vector<double> setups;
  std::vector<double> qps_by_round;
  std::size_t queries = 0;
  for (const RoundResult& r : untraced) {
    setups.push_back(r.setup_s);
    qps_by_round.push_back(static_cast<double>(r.query_us.size()) / r.loop_s);
    queries += r.query_us.size();
  }
  // The median round: it also leaves out round 0's first touch of the
  // process's memory, which no later round pays.
  const double qps = Report::percentile(qps_by_round, 50.0);
  const std::vector<double> query_us = joined(untraced, &RoundResult::query_us);
  const std::vector<double> ingest_us = joined(untraced, &RoundResult::ingest_us);

  if (!options.trace) {
    report.metric("setup_s", Report::percentile(setups, 50.0), "s", n);
    report.metric("ops_per_s", qps, "1/s", queries);
    report_latency(report, "query_", query_us);
    report_latency(report, "ingest_", ingest_us);
    report.metric("peak_rss_mb", rss_mb, "MB", 1);
    return;
  }

  // Per-layer figures come from the run's first round (traced as trial 1),
  // so they do not depend on --seconds.
  const RoundResult& first = untraced.front();
  const auto count = [&](std::string_view key) { return count_of(first.counts, key); };
  const std::vector<double>& touched = traced.front().touched;
  double touched_sum = 0.0;
  for (const double t : touched) touched_sum += t;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  for (const RoundResult& r : untraced) untraced_s.push_back(r.loop_s);
  for (const RoundResult& r : traced) traced_s.push_back(r.loop_s);

  std::vector<std::vector<double>> by_name(static_cast<std::size_t>(SpanName::kCount));
  for (const Span& span : log.spans()) {
    if (span.trial != 1) continue;
    by_name[span.name].push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
  }
  const auto p50 = [&](SpanName name, const std::string& metric) {
    const std::vector<double>& us = by_name[static_cast<std::size_t>(name)];
    report.metric(metric, Report::percentile(us, 50.0), "us", us.size());
  };
  p50(SpanName::kApplyDeploy, "service.apply.deploy.p50_us");
  p50(SpanName::kApplyUpdate, "service.apply.update.p50_us");
  p50(SpanName::kApplyRevoke, "service.apply.revoke.p50_us");
  report.metric("service.apply.touched_nodes_mean",
                touched.empty() ? 0.0 : touched_sum / static_cast<double>(touched.size()),
                "count", touched.size());
  p50(SpanName::kSnapshot, "service.snapshot.p50_us");
  p50(SpanName::kLookup, "service.lookup.p50_us");
  report_latency(report, "service.query.", query_us);
  report_latency(report, "service.ingest.", ingest_us);
  report.metric("service.rebuild_s", first.rebuild_s, "s", 1);
  report.metric("service.validated_edges", count("validated_edges"), "count", 1);
  report.metric("service.accepted", count("accepted"), "count", 1);
  // No master key is configured, so both should read 0.
  report.metric("crypto.hash_ops.setup", count("hash_ops_setup"), "count", 1);
  report.metric("crypto.hash_ops.run", count("hash_ops_run"), "count", 1);
  report.metric("trace.overhead_ratio", overhead_ratio(untraced_s, traced_s), "ratio", n - 1);
  report.write_spans(log);
}

}  // namespace perfbench
