// The flat sorted-array (struct-of-arrays) state layout is the only layout;
// see util/flat.h.
#pragma once

namespace snd::util {

/// Always true. Kept solely so the repository benchmark's report can keep
/// printing it as provenance.
[[nodiscard]] constexpr bool soa_enabled() { return true; }

}  // namespace snd::util
