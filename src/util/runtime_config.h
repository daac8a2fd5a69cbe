// snd::RuntimeConfig: the single resolution point for every SND_* process
// environment variable. Historically each subsystem read its own variable
// with its own parsing rules (obs/config.cpp, runner/trial_runner.cpp and
// several bench drivers all called getenv); this header replaces those
// scattered fallbacks with one documented struct read once per process.
//
// Variables and their meaning (flags always beat the environment):
//
//   SND_JOBS         worker threads for Monte-Carlo sweeps (--jobs fallback)
//   SND_LOG_LEVEL    harness log level (--log fallback)
//   SND_TRACE_LEVEL  trace verbosity (--trace fallback)
//   SND_TRACE_JSON   JSON-lines event stream destination (--trace-json)
//   SND_TRACE_BIN    binary .sndtrace destination (--trace-bin)
//   SND_BENCH_DIR    directory BENCH_*.json artifacts are written into
//
// The obs string values stay unparsed here: their vocabulary belongs to
// snd::obs, which validates them in resolve_obs() exactly as it validates
// the corresponding flags. This keeps util at the bottom of the layering.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace snd {

struct RuntimeConfig {
  /// SND_JOBS; nullopt when unset or empty.
  std::optional<std::int64_t> jobs;
  /// SND_LOG_LEVEL / SND_TRACE_LEVEL / SND_TRACE_JSON / SND_TRACE_BIN,
  /// verbatim; parsed and validated by obs::resolve_obs.
  std::optional<std::string> log_level;
  std::optional<std::string> trace_level;
  std::optional<std::string> trace_json;
  std::optional<std::string> trace_bin;
  /// SND_BENCH_DIR; nullopt writes artifacts into the working directory.
  std::optional<std::string> bench_dir;
};

/// The process-wide configuration, resolved from the environment on first
/// use and stable afterwards. Subsystems read this instead of getenv.
[[nodiscard]] const RuntimeConfig& runtime_config();

/// A fresh read of the environment (does not touch the singleton). Tests
/// use this to check parsing without perturbing the process state.
[[nodiscard]] RuntimeConfig load_runtime_config_from_env();

/// Replaces the singleton (tests only); affects future runtime_config()
/// readers.
void set_runtime_config_for_testing(const RuntimeConfig& config);

/// `bench_dir`-aware artifact path: "<bench_dir>/<filename>" when
/// SND_BENCH_DIR is set and non-empty, `filename` unchanged otherwise.
[[nodiscard]] std::string bench_artifact_path(std::string_view filename);

}  // namespace snd
