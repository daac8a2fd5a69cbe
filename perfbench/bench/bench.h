// Shared pieces of the repository benchmark: run options, the in-memory span
// log of a traced run, and the line-oriented report the workloads write to
// stdout. perfbench/run.py reads that report, checks every trial record
// against the counts recorded in perfbench/expected.json, and prints the
// final result line.
//
// Report lines, one JSON object each behind a tag:
//   provenance {...}   build and runtime switches of this binary
//   trial {...}        exact counts of one trial (discovery) or round (serve)
//                      and the seconds of its timed phase
//   metric {...}       name, value, unit, sample count
//   ops {...}          operations attempted / failed inside the binary
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

enum class Size : std::uint8_t { kTiny, kFull };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Wall seconds the run is sized for; see round_count().
  double seconds = 10.0;
  /// false: untraced run, end-to-end metrics. true: every round runs once
  /// untraced and once traced, and the per-layer metrics are reported.
  bool trace = false;
  Size size = Size::kFull;
  /// 0: derive the number of rounds from `seconds`. N: run exactly N rounds.
  std::size_t rounds = 0;
  /// Where a traced run writes its spans; empty writes nothing.
  std::string spans_path;
  /// Source revision for the provenance block.
  std::string commit = "unknown";
};

/// Every workload draws its rounds from this many inputs, whose exact counts
/// are recorded in perfbench/expected.json.
inline constexpr std::uint64_t kPoolSize = 16;

/// Pool position of round `k` of a run: rounds walk the pool starting at
/// the input `seed` selects.
[[nodiscard]] inline std::uint64_t pool_index(const Options& options, std::size_t k) {
  return (options.seed + k) % kPoolSize;
}

/// Number of rounds a run makes. It is fixed by the options alone, so that
/// two commits measured with the same seed and --seconds run the same inputs
/// however fast each is: as many rounds of `round_s` seconds (one untraced
/// round on the reference host) as fit in options.seconds, at least one. A
/// traced run replays every round twice and its traced pass is slower, so it
/// makes about a quarter as many: one warm-up round plus an even number, so
/// that past the warm-up each pass goes first equally often (see
/// traced_first()).
[[nodiscard]] inline std::size_t round_count(const Options& options, double round_s) {
  if (options.rounds != 0) return options.rounds;
  const auto fit = [&](double seconds) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(seconds / round_s)));
  };
  return options.trace ? 1 + 2 * fit(options.seconds / 8.0) : fit(options.seconds);
}

/// Whether round `k` of a traced run replays traced before untraced: odd
/// rounds do, so that neither pass always runs on memory the other has just
/// warmed.
[[nodiscard]] inline bool traced_first(const Options& options, std::size_t k) {
  return options.trace && k % 2 == 1;
}

/// trace.overhead_ratio: traced over untraced seconds of the timed phase,
/// summed over every round but the first. Round 0's untraced pass is the
/// first to touch the process's memory and pays for its page faults (about
/// a fifth of a serve_mixed loop), which no later pass does.
[[nodiscard]] inline double overhead_ratio(const std::vector<double>& untraced_s,
                                           const std::vector<double>& traced_s) {
  double untraced = 0.0;
  double traced = 0.0;
  for (std::size_t k = 1; k < untraced_s.size() && k < traced_s.size(); ++k) {
    untraced += untraced_s[k];
    traced += traced_s[k];
  }
  return untraced > 0.0 ? traced / untraced : 0.0;
}

/// Runs round(k) for k = 0 .. round_count(options, round_s) - 1.
template <class Round>
void repeat_rounds(const Options& options, double round_s, Round&& round) {
  const std::size_t rounds = round_count(options, round_s);
  for (std::size_t k = 0; k < rounds; ++k) round(k);
}

// -- Spans --------------------------------------------------------------------

/// What a span covers. The benchmark records spans only around the public
/// calls it makes; nothing inside the library is instrumented.
enum class SpanName : std::uint16_t {
  kTrial,             // one discovery trial
  kConstruct,         // core::SndDeployment construction
  kDeployRound,       // deploy_node_at + deploy_round
  kMobility,          // adversary::WaypointMobility construction + schedule()
  kRun,               // the step loop to quiescence
  kStepTransmit,      // Scheduler::step that put a message on the air
  kStepDeliver,       // Scheduler::step that only delivered
  kStepTimer,         // any other Scheduler::step
  kRound,             // one serve round
  kSeedTopology,      // ValidationService::seed_topology
  kLoop,              // the closed query/ingest loop
  kApplyDeploy,       // ValidationService::apply, by event kind
  kApplyUpdate,
  kApplyRevoke,
  kQuery,             // one F(u, v) query: snapshot() then validate()
  kSnapshot,          // ValidationService::snapshot
  kLookup,            // Snapshot::validate
  kCount
};

struct Span {
  std::uint64_t start_ns = 0;  ///< since the log's origin
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;        ///< 1-based position in the log
  std::uint32_t parent = 0;    ///< 0: a root span
  std::uint32_t trial = 0;     ///< shared by every span of one trial / round
  std::uint32_t hash_ops = 0;  ///< SHA-256 compressions inside the span
  std::uint16_t name = 0;
  std::uint16_t reserved[3] = {};
};
static_assert(sizeof(Span) == 40);

/// Spans of a traced run, kept in memory and written once at the end.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  [[nodiscard]] std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count());
  }

  /// Opens a span starting now; close it with close().
  std::uint32_t open(SpanName name, std::uint32_t parent, std::uint32_t trial) {
    return add(name, parent, trial, now_ns(), 0);
  }
  void close(std::uint32_t id) { spans_[id - 1].end_ns = now_ns(); }

  /// Records a finished span.
  std::uint32_t add(SpanName name, std::uint32_t parent, std::uint32_t trial,
                    std::uint64_t start_ns, std::uint64_t end_ns, std::uint32_t hash_ops = 0) {
    Span span;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.trial = trial;
    span.hash_ops = hash_ops;
    span.name = static_cast<std::uint16_t>(name);
    spans_.push_back(span);
    return span.id;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part its children
  /// cover (children never overlap each other here), indexed by id - 1.
  [[nodiscard]] std::vector<std::uint64_t> self_ns() const;

  /// Writes one JSON header line (`header_json` plus the span names and
  /// record layout), then the raw 40-byte little-endian records.
  [[nodiscard]] bool write(const std::string& path, const std::string& header_json) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// -- Report -------------------------------------------------------------------

/// Ordered exact counts of one trial or round.
using Counts = std::vector<std::pair<std::string, std::uint64_t>>;

/// The count named `key`, as a double for metric arithmetic; 0 when absent.
[[nodiscard]] inline double count_of(const Counts& counts, std::string_view key) {
  for (const auto& [name, value] : counts) {
    if (name == key) return static_cast<double>(value);
  }
  return 0.0;
}

class Report {
 public:
  explicit Report(const Options& options) : options_(options) {}

  void metric(std::string_view name, double value, std::string_view unit, std::size_t samples);
  /// Prints the exact counts of round `k` (pool position `pool`) and the
  /// seconds of its timed phase; `pass` is "untraced" or "traced".
  void trial(std::size_t k, std::uint64_t pool, std::string_view pass, const Counts& counts,
             double timed_s);
  /// Counts one checked operation; a failed one is also described on stderr.
  void attempt(bool ok, std::string_view what);

  void provenance() const;
  /// Provenance as one JSON object (also the spans file header).
  [[nodiscard]] std::string provenance_json() const;
  /// Prints the ops line; returns the process exit code.
  [[nodiscard]] int finish() const;

  /// The p-th percentile of `values` (linear interpolation); 0 when empty.
  [[nodiscard]] static double percentile(std::vector<double> values, double p);

  /// Per-bucket metrics of the spans of `trial`: `<prefix>.count`,
  /// `.self_s`, `.p50_us`, `.p99_us`, `.hash_ops` for each name in `names`.
  void span_buckets(const SpanLog& log, std::uint32_t trial,
                    const std::vector<std::pair<SpanName, std::string>>& names);

  /// Writes the span log to options.spans_path (if set).
  void write_spans(const SpanLog& log);

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  const Options& options_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set of this process so far, MB. Workloads report it as of
/// the end of their first round: later rounds reuse memory the allocator
/// kept from earlier ones, so a later high-water mark depends on how many
/// rounds ran and in which order rather than on the footprint of a round.
[[nodiscard]] double peak_rss_mb();

/// Workload entry points; each prints its metrics and trial records.
void run_discovery(Report& report, bool sparse_mobile);
void run_serve(Report& report);

}  // namespace perfbench
