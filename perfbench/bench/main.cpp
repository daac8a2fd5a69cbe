// snd_perfbench: one workload of the repository benchmark per process.
//
//   snd_perfbench --workload discovery_dense --seed 3 --seconds 20 --trace 0
//
// Prints the report lines described in bench.h; perfbench/run.py builds this
// binary, checks its trial records and prints the final result line.
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "bench.h"
#include "util/driver_spec.h"

namespace {

std::optional<std::string> one_of(std::string_view value,
                                  std::initializer_list<std::string_view> allowed) {
  for (const std::string_view a : allowed) {
    if (value == a) return std::nullopt;
  }
  std::string message = "expected one of:";
  for (const std::string_view a : allowed) message += " " + std::string(a);
  return message;
}

}  // namespace

int main(int argc, char** argv) {
  snd::util::cli::DriverSpec spec(
      "snd_perfbench",
      "One workload of the repository benchmark: discovery_dense,\n"
      "discovery_sparse_mobile or serve_mixed.");
  spec.string_flag("workload", "", "NAME", "workload to run",
                   [](std::string_view v) {
                     return one_of(v, {"discovery_dense", "discovery_sparse_mobile",
                                       "serve_mixed"});
                   })
      .int_flag("seed", 1, "N", "workload seed: picks the recorded inputs the run starts at", 0)
      .double_flag("seconds", 10.0, "S", "wall seconds the run is sized for (sets the round count)",
                   0.0)
      .int_flag("trace", 0, "0|1", "1: replay every round traced, report per-layer metrics", 0, 1)
      .string_flag("size", "full", "SIZE", "full | tiny (tiny is for the benchmark's tests)",
                   [](std::string_view v) { return one_of(v, {"full", "tiny"}); })
      .int_flag("rounds", 0, "N", "run exactly N rounds (0: as many as --seconds allows)", 0)
      .string_flag("spans", "", "PATH", "traced runs write their spans to PATH")
      .string_flag("commit", "unknown", "REV", "source revision for the provenance block");
  const snd::util::cli::Driver cli = spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();
  if (cli.get("workload").empty()) {
    std::cerr << "snd_perfbench: --workload is required\n";
    return 2;
  }

  perfbench::Options options;
  options.workload = cli.get("workload");
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  options.seconds = cli.get_double("seconds");
  options.trace = cli.get_int("trace") == 1;
  options.size = cli.get("size") == "tiny" ? perfbench::Size::kTiny : perfbench::Size::kFull;
  options.rounds = static_cast<std::size_t>(cli.get_int("rounds"));
  options.spans_path = cli.get("spans");
  options.commit = cli.get("commit");

  perfbench::Report report(options);
  report.provenance();
  if (options.workload == "serve_mixed") {
    perfbench::run_serve(report);
  } else {
    perfbench::run_discovery(report, options.workload == "discovery_sparse_mobile");
  }
  return report.finish();
}
