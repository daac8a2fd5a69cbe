// Scoped SIMD tier pin for tests. ForcedTier routes every wide path (batch
// SHA-256, SHA-NI, strip filter, batched send_many) through one tier,
// clamped to the CPU's ceiling, and restores pure detection when it goes
// out of scope, so a failing assertion cannot leak a pinned tier into the
// tests that follow. Loop over kAllTiers to compare kScalar (the seed
// paths) against the wide tiers; objects that latch the tier at
// construction (sim::Network) must be built inside the guard's scope.
#pragma once

#include <array>
#include <optional>
#include <string>

#include "util/simd.h"

namespace snd::test {

inline constexpr std::array<util::SimdTier, 3> kAllTiers = {
    util::SimdTier::kScalar, util::SimdTier::kSse2, util::SimdTier::kAvx2};

class ForcedTier {
 public:
  explicit ForcedTier(util::SimdTier tier) { util::set_forced_simd_tier(tier); }
  ~ForcedTier() { util::set_forced_simd_tier(std::nullopt); }
  ForcedTier(const ForcedTier&) = delete;
  ForcedTier& operator=(const ForcedTier&) = delete;
};

/// "tier=<n>" for assertion messages.
inline std::string tier_label(util::SimdTier tier) {
  return "tier=" + std::to_string(static_cast<int>(tier));
}

}  // namespace snd::test
