// CPU-feature probe for the batched/wide execution layer: the multi-buffer
// SHA-256 engine (crypto/sha256_mb), the single-stream SHA-NI compressor
// and the strip candidate filter in sim::Network.
//
// One decision drives every wide path: active_simd_tier(), resolved once
// from CPUID (GCC/Clang __builtin_cpu_supports) on x86-64 and kScalar
// elsewhere. Each tier maps to these paths:
//
//   kAvx2    batches run the AVX2 8-lane kernel; single streams use SHA-NI
//            where the CPU has it; the strip filter runs AVX2.
//   kSse2    batches drain serially through Sha256 (SHA-NI where present);
//            the strip filter runs SSE2.
//   kScalar  the seed paths: portable compressor, no strip filter, serial
//            Messenger::send_many.
//
// All tiers make identical decisions in identical order; the committed
// golden digests (state, event order, property suite) are asserted at
// every tier. Tests and benches lower the tier with set_forced_simd_tier();
// forcing a tier the CPU lacks is clamped (the probe result is a ceiling,
// never a floor). Consumers that latch the tier at construction
// (sim::Network) must be built after the tier is pinned.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>

namespace snd::util {

/// Widest kernel the process may use, ordered so `a < b` means "narrower".
enum class SimdTier : std::uint8_t {
  kScalar = 0,  // portable one-at-a-time seed paths
  kSse2 = 1,    // 4 x u32 / 2 x f64 vectors
  kAvx2 = 2,    // 8 x u32 / 4 x f64 vectors
};

/// The CPU's detected ceiling, probed once per process.
[[nodiscard]] SimdTier detected_simd_tier();

/// The tier kernels should dispatch on: min(detected, forced-or-detected).
[[nodiscard]] SimdTier active_simd_tier();

/// True unless the active tier is kScalar: whether any wide path may run.
[[nodiscard]] bool simd_enabled();

/// Pins dispatch at `tier` (clamped to the detected ceiling) for A/B
/// width-series benchmarks and cross-tier equivalence tests; nullopt
/// restores pure detection.
void set_forced_simd_tier(std::optional<SimdTier> tier);

// Lane load/store helpers. All wide kernels gather lane data from byte
// buffers through these (never by casting byte pointers to wider types), so
// unaligned and aliasing-hostile inputs are defined behavior everywhere the
// sanitizer jobs look.
[[nodiscard]] inline std::uint32_t load_u32_le(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

[[nodiscard]] inline std::uint32_t load_u32_be(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 | static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 | static_cast<std::uint32_t>(p[3]);
}

inline void store_u32_be(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

[[nodiscard]] inline double load_f64(const std::uint8_t* p) {
  double v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace snd::util
