#include "util/simd.h"

#include <atomic>

namespace snd::util {

namespace {

SimdTier probe_tier() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return SimdTier::kAvx2;
  if (__builtin_cpu_supports("sse2")) return SimdTier::kSse2;
#endif
  return SimdTier::kScalar;
}

/// kNoForce means "dispatch on detection alone".
constexpr int kNoForce = -1;

std::atomic<int>& forced_tier() {
  static std::atomic<int> tier{kNoForce};
  return tier;
}

}  // namespace

SimdTier detected_simd_tier() {
  static const SimdTier tier = probe_tier();
  return tier;
}

SimdTier active_simd_tier() {
  const SimdTier ceiling = detected_simd_tier();
  const int forced = forced_tier().load(std::memory_order_relaxed);
  if (forced == kNoForce) return ceiling;
  const auto wanted = static_cast<SimdTier>(forced);
  return wanted < ceiling ? wanted : ceiling;
}

bool simd_enabled() { return active_simd_tier() != SimdTier::kScalar; }

void set_forced_simd_tier(std::optional<SimdTier> tier) {
  forced_tier().store(tier ? static_cast<int>(*tier) : kNoForce,
                      std::memory_order_relaxed);
}

}  // namespace snd::util
