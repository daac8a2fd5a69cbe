#include <sched.h>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.h"
#include "crypto/session_cache.h"
#include "util/json.h"
#include "util/simd.h"
#include "util/soa.h"

namespace perfbench {

namespace {

constexpr std::string_view kSpanNames[] = {
    "trial",         "construct",    "deploy_round",  "mobility",      "run",
    "step.transmit", "step.deliver", "step.timer",    "round",         "seed_topology",
    "loop",          "apply.deploy", "apply.update",  "apply.revoke",  "query",
    "snapshot",      "lookup",
};
static_assert(std::size(kSpanNames) == static_cast<std::size_t>(SpanName::kCount));

/// CPU brand string from CPUID, so provenance needs no file outside the
/// checkout.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(0x80000000u, &max_leaf, &b, &c, &d) != 0 && max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    const auto last = model.find_last_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

std::string_view tier_name(snd::util::SimdTier tier) {
  switch (tier) {
    case snd::util::SimdTier::kScalar: return "scalar";
    case snd::util::SimdTier::kSse2: return "sse2";
    case snd::util::SimdTier::kAvx2: return "avx2";
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Shortest text that reads back as exactly `value`.
std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::vector<std::uint64_t> SpanLog::self_ns() const {
  std::vector<std::uint64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& span : spans_) {
    if (span.parent != 0) self[span.parent - 1] -= span.end_ns - span.start_ns;
  }
  return self;
}

bool SpanLog::write(const std::string& path, const std::string& header_json) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  std::string names;
  for (const std::string_view name : kSpanNames) {
    names += names.empty() ? "" : ",";
    names += snd::util::json_quote(name);
  }
  out << "{\"provenance\":" << header_json << ",\"names\":[" << names
      << "],\"spans\":" << spans_.size()
      << ",\"record\":\"40 bytes little-endian: u64 start_ns, u64 end_ns, u32 id, "
         "u32 parent, u32 trial, u32 hash_ops, u16 name, 6 bytes padding\"}\n";
  out.write(reinterpret_cast<const char*>(spans_.data()),
            static_cast<std::streamsize>(spans_.size() * sizeof(Span)));
  return static_cast<bool>(out);
}

void Report::metric(std::string_view name, double value, std::string_view unit,
                    std::size_t samples) {
  std::cout << "metric {\"name\":" << snd::util::json_quote(name)
            << ",\"value\":" << number(std::isfinite(value) ? value : 0.0)
            << ",\"unit\":" << snd::util::json_quote(unit) << ",\"samples\":" << samples
            << "}\n";
}

void Report::trial(std::size_t k, std::uint64_t pool, std::string_view pass,
                   const Counts& counts, double timed_s) {
  std::cout << "trial {\"round\":" << k << ",\"pool\":" << pool
            << ",\"pass\":" << snd::util::json_quote(pass) << ",\"timed_s\":" << number(timed_s)
            << ",\"counts\":{";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    std::cout << (i == 0 ? "" : ",") << snd::util::json_quote(counts[i].first) << ":"
              << counts[i].second;
  }
  std::cout << "}}\n";
}

void Report::attempt(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: FAILED: " << what << "\n";
  }
}

std::string Report::provenance_json() const {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc = sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
  using snd::util::json_quote;
  std::string json = "{";
  json += "\"commit\":" + json_quote(options_.commit);
  json += ",\"cpu_model\":" + json_quote(cpu_model());
  json += ",\"nproc\":" + std::to_string(nproc);
  json += ",\"compiler\":" + json_quote(compiler());
  json += ",\"cxx_flags\":" + json_quote(SND_PERFBENCH_CXX_FLAGS);
  json += ",\"build_type\":" + json_quote(SND_PERFBENCH_BUILD_TYPE);
  json += ",\"snd_simd\":" + std::string(snd::util::simd_enabled() ? "true" : "false");
  json += ",\"simd_tier\":" + json_quote(tier_name(snd::util::active_simd_tier()));
  json += ",\"snd_soa\":" + std::string(snd::util::soa_enabled() ? "true" : "false");
  json += ",\"snd_crypto_fast\":" +
          std::string(snd::crypto::fast_path_enabled() ? "true" : "false");
  json += ",\"workload\":" + json_quote(options_.workload);
  json += ",\"size\":" + json_quote(options_.size == Size::kTiny ? "tiny" : "full");
  json += ",\"seed\":" + std::to_string(options_.seed);
  json += ",\"pool_size\":" + std::to_string(kPoolSize);
  json += ",\"seconds\":" + number(options_.seconds);
  json += ",\"trace\":" + std::string(options_.trace ? "true" : "false");
  json += "}";
  return json;
}

void Report::provenance() const { std::cout << "provenance " << provenance_json() << "\n"; }

int Report::finish() const {
  std::cout << "ops {\"attempted\":" << attempted_ << ",\"failed\":" << failed_ << "}\n";
  std::cout.flush();
  return failed_ == 0 ? 0 : 1;
}

double Report::percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

void Report::span_buckets(const SpanLog& log, std::uint32_t trial,
                          const std::vector<std::pair<SpanName, std::string>>& names) {
  const std::vector<std::uint64_t> self = log.self_ns();
  for (const auto& [name, prefix] : names) {
    std::vector<double> durations_us;
    double self_s = 0.0;
    std::uint64_t hash_ops = 0;
    for (const Span& span : log.spans()) {
      if (span.trial != trial || span.name != static_cast<std::uint16_t>(name)) continue;
      durations_us.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      self_s += static_cast<double>(self[span.id - 1]) / 1e9;
      hash_ops += span.hash_ops;
    }
    const std::size_t n = durations_us.size();
    metric(prefix + ".count", static_cast<double>(n), "count", n);
    metric(prefix + ".self_s", self_s, "s", n);
    metric(prefix + ".p50_us", percentile(durations_us, 50.0), "us", n);
    metric(prefix + ".p99_us", percentile(std::move(durations_us), 99.0), "us", n);
    metric(prefix + ".hash_ops", static_cast<double>(hash_ops), "count", n);
  }
}

void Report::write_spans(const SpanLog& log) {
  if (options_.spans_path.empty()) return;
  if (!log.write(options_.spans_path, provenance_json())) {
    attempt(false, "cannot write spans to " + options_.spans_path);
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
