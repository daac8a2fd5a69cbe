#include "crypto/sha256_mb.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>

#include "util/simd.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SND_SHA256_MB_X86 1
#else
#define SND_SHA256_MB_X86 0
#endif

namespace snd::crypto {

namespace {

using util::store_u32_be;

#if SND_SHA256_MB_X86

/// Lane count of the AVX2 kernel; transposed state rows have this stride.
constexpr int kLanes = 8;

/// One job's block stream: the full 64-byte blocks of its data buffer
/// followed by 1-2 padding blocks materialized in `pad` (FIPS 180-4: 0x80,
/// zeros, 64-bit bit length of the whole message including the midstate's
/// processed prefix).
struct Lane {
  std::size_t job = 0;
  const std::uint8_t* data = nullptr;
  std::size_t full_blocks = 0;
  std::array<std::uint8_t, 128> pad{};
  std::size_t pad_blocks = 0;
  std::size_t next = 0;

  [[nodiscard]] std::size_t total_blocks() const { return full_blocks + pad_blocks; }
  [[nodiscard]] const std::uint8_t* block(std::size_t i) const {
    return i < full_blocks ? data + 64 * i : pad.data() + 64 * (i - full_blocks);
  }
};

void build_lane(Lane& lane, std::size_t job, std::span<const std::uint8_t> data,
                std::uint64_t absorbed) {
  lane.job = job;
  lane.data = data.data();
  lane.full_blocks = data.size() / 64;
  lane.next = 0;
  const std::size_t rem = data.size() % 64;
  lane.pad.fill(0);
  if (rem > 0) std::memcpy(lane.pad.data(), data.data() + 64 * lane.full_blocks, rem);
  lane.pad[rem] = 0x80;
  const std::size_t pad_len = rem + 9 <= 64 ? 64 : 128;
  lane.pad_blocks = pad_len / 64;
  const std::uint64_t bit_length = (absorbed + data.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    lane.pad[pad_len - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_length >> (8 * (7 - i)));
  }
}

// ---- AVX2 x8 -------------------------------------------------------------
// Wide integer adds are mod-2^32 exactly like the scalar code, so lanes are
// bit-identical by construction. Per-function target attributes keep the
// rest of the library buildable without -mavx2 globally.

__attribute__((target("avx2"))) inline __m256i rotr32_avx2(__m256i v, int n) {
  return _mm256_or_si256(_mm256_srli_epi32(v, n), _mm256_slli_epi32(v, 32 - n));
}

/// AVX2 loader: 8x8 u32 transpose (unpack32 / unpack64 / 128-bit permute)
/// plus vpshufb byte swaps, run once per 32-byte half of the block. Replaces
/// 128 scalar big-endian loads per block with 16 loads and 64 shuffles.
__attribute__((target("avx2"))) void compress_lanes_avx2(
    std::uint32_t state[8][kLanes], const std::uint8_t* const blocks[kLanes]) {
  const __m256i bswap = _mm256_broadcastsi128_si256(
      _mm_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12));
  __m256i w[64];
  for (int half = 0; half < 2; ++half) {
    __m256i r[8];
    for (int l = 0; l < 8; ++l) {
      r[l] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(blocks[l] + 32 * half));
    }
    __m256i t[8];
    for (int p = 0; p < 4; ++p) {
      t[2 * p] = _mm256_unpacklo_epi32(r[2 * p], r[2 * p + 1]);
      t[2 * p + 1] = _mm256_unpackhi_epi32(r[2 * p], r[2 * p + 1]);
    }
    __m256i u[8];
    u[0] = _mm256_unpacklo_epi64(t[0], t[2]);
    u[1] = _mm256_unpackhi_epi64(t[0], t[2]);
    u[2] = _mm256_unpacklo_epi64(t[1], t[3]);
    u[3] = _mm256_unpackhi_epi64(t[1], t[3]);
    u[4] = _mm256_unpacklo_epi64(t[4], t[6]);
    u[5] = _mm256_unpackhi_epi64(t[4], t[6]);
    u[6] = _mm256_unpacklo_epi64(t[5], t[7]);
    u[7] = _mm256_unpackhi_epi64(t[5], t[7]);
    for (int i = 0; i < 4; ++i) {
      w[8 * half + i] =
          _mm256_shuffle_epi8(_mm256_permute2x128_si256(u[i], u[i + 4], 0x20), bswap);
      w[8 * half + i + 4] =
          _mm256_shuffle_epi8(_mm256_permute2x128_si256(u[i], u[i + 4], 0x31), bswap);
    }
  }
  for (int i = 16; i < 64; ++i) {
    const __m256i x15 = w[i - 15];
    const __m256i x2 = w[i - 2];
    const __m256i s0 = _mm256_xor_si256(
        _mm256_xor_si256(rotr32_avx2(x15, 7), rotr32_avx2(x15, 18)), _mm256_srli_epi32(x15, 3));
    const __m256i s1 = _mm256_xor_si256(
        _mm256_xor_si256(rotr32_avx2(x2, 17), rotr32_avx2(x2, 19)), _mm256_srli_epi32(x2, 10));
    w[i] = _mm256_add_epi32(_mm256_add_epi32(w[i - 16], s0), _mm256_add_epi32(w[i - 7], s1));
  }
  __m256i v[8];
  for (int r = 0; r < 8; ++r) {
    v[r] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state[r]));
  }
#pragma GCC unroll 8
  for (int i = 0; i < 64; ++i) {
    const __m256i a = v[0];
    const __m256i e = v[4];
    const __m256i s1 = _mm256_xor_si256(
        _mm256_xor_si256(rotr32_avx2(e, 6), rotr32_avx2(e, 11)), rotr32_avx2(e, 25));
    const __m256i ch =
        _mm256_xor_si256(_mm256_and_si256(e, v[5]), _mm256_andnot_si256(e, v[6]));
    const __m256i k = _mm256_set1_epi32(
        static_cast<int>(detail::kRoundConstants[static_cast<std::size_t>(i)]));
    const __m256i t1 = _mm256_add_epi32(
        _mm256_add_epi32(_mm256_add_epi32(v[7], s1), _mm256_add_epi32(ch, k)), w[i]);
    const __m256i s0 = _mm256_xor_si256(
        _mm256_xor_si256(rotr32_avx2(a, 2), rotr32_avx2(a, 13)), rotr32_avx2(a, 22));
    const __m256i maj =
        _mm256_xor_si256(_mm256_xor_si256(_mm256_and_si256(a, v[1]), _mm256_and_si256(a, v[2])),
                         _mm256_and_si256(v[1], v[2]));
    const __m256i t2 = _mm256_add_epi32(s0, maj);
    v[7] = v[6];
    v[6] = v[5];
    v[5] = e;
    v[4] = _mm256_add_epi32(v[3], t1);
    v[3] = v[2];
    v[2] = v[1];
    v[1] = a;
    v[0] = _mm256_add_epi32(t1, t2);
  }
  for (int r = 0; r < 8; ++r) {
    const __m256i sum =
        _mm256_add_epi32(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(state[r])), v[r]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(state[r]), sum);
  }
}

#endif  // SND_SHA256_MB_X86

}  // namespace

HashBatch::JobState& HashBatch::start_job() {
  assert(!ran_);
  if (live_ == jobs_.size()) jobs_.emplace_back();
  JobState& job = jobs_[live_++];
  job.data.clear();
  return job;
}

HashBatch::Job HashBatch::add() {
  JobState& job = start_job();
  job.state = detail::kInitialState;
  job.absorbed = 0;
  return Job(this, live_ - 1);
}

HashBatch::Job HashBatch::add(const Sha256& base) {
  JobState& job = start_job();
  const Sha256::Midstate m = base.midstate();
  job.state = m.state;
  // The sub-block tail moves into the data buffer, so `absorbed` (the
  // already-compressed prefix) is always a multiple of 64 and block
  // boundaries land at data offsets 0 mod 64.
  job.absorbed = m.total_bytes - m.tail_len;
  job.data.assign(m.tail.begin(), m.tail.begin() + static_cast<std::ptrdiff_t>(m.tail_len));
  return Job(this, live_ - 1);
}

HashBatch::Job& HashBatch::Job::update(std::span<const std::uint8_t> data) {
  if (!data.empty()) {
    util::Bytes& out = batch_->jobs_[index_].data;
    out.insert(out.end(), data.begin(), data.end());
  }
  return *this;
}

HashBatch::Job& HashBatch::Job::update(std::string_view text) {
  return update(std::span(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

HashBatch::Job& HashBatch::Job::update_framed(std::span<const std::uint8_t> data) {
  std::array<std::uint8_t, 4> len;
  store_u32_be(len.data(), static_cast<std::uint32_t>(data.size()));
  update(len);
  return update(data);
}

HashBatch::Job& HashBatch::Job::update_framed(std::string_view text) {
  return update_framed(std::span(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

HashBatch::Job& HashBatch::Job::update_u64(std::uint64_t v) {
  std::array<std::uint8_t, 8> buf;
  for (int i = 7; i >= 0; --i) {
    buf[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v);
    v >>= 8;
  }
  return update(buf);
}

void HashBatch::run() {
  assert(!ran_);
  ran_ = true;
#if SND_SHA256_MB_X86
  if (live_ >= 2 && util::active_simd_tier() == util::SimdTier::kAvx2) {
    run_wide();
    return;
  }
#endif
  run_serial();
}

void HashBatch::run_serial() {
  // The seed path: replays each job through a plain Sha256, so digests and
  // op counts match a never-batched caller exactly.
  for (std::size_t i = 0; i < live_; ++i) {
    JobState& job = jobs_[i];
    Sha256::Midstate m;
    m.state = job.state;
    m.tail_len = 0;
    m.total_bytes = job.absorbed;
    Sha256 ctx = Sha256::resume(m);
    ctx.update(job.data);
    job.digest = ctx.finalize();
  }
}

#if SND_SHA256_MB_X86
void HashBatch::run_wide() {
  // Scheduling scratch, reused across drains (ingest loops drain thousands
  // of batches; re-allocating 256 lanes per drain showed up in profiles).
  static thread_local std::vector<Lane> lanes;
  static thread_local std::vector<std::size_t> active;
  lanes.resize(live_);
  for (std::size_t i = 0; i < live_; ++i) {
    build_lane(lanes[i], i, jobs_[i].data, jobs_[i].absorbed);
  }
  active.resize(live_);
  std::iota(active.begin(), active.end(), std::size_t{0});

  std::uint32_t st[8][kLanes];
  const std::uint8_t* blocks[kLanes];

  // A group is the first min(kLanes, active) lanes; it runs as many blocks
  // as its shortest member has left, so the state transposes amortize over
  // the whole run (uniform batches -- the common case -- transpose once per
  // job, not once per block). Exhausted lanes then retire, and when only
  // one remains it finishes on the shared scalar compressor.
  while (active.size() >= 2) {
    const int k = static_cast<int>(std::min<std::size_t>(kLanes, active.size()));
    std::size_t run = lanes[active[0]].total_blocks() - lanes[active[0]].next;
    for (int l = 0; l < k; ++l) {
      Lane& lane = lanes[active[static_cast<std::size_t>(l)]];
      run = std::min(run, lane.total_blocks() - lane.next);
      for (int r = 0; r < 8; ++r) st[r][l] = jobs_[lane.job].state[static_cast<std::size_t>(r)];
    }
    // Idle vector lanes replay the last real lane so every load is defined.
    for (int l = k; l < kLanes; ++l) {
      for (int r = 0; r < 8; ++r) st[r][l] = st[r][k - 1];
    }

    for (std::size_t b = 0; b < run; ++b) {
      for (int l = 0; l < k; ++l) {
        Lane& lane = lanes[active[static_cast<std::size_t>(l)]];
        blocks[l] = lane.block(lane.next + b);
      }
      for (int l = k; l < kLanes; ++l) blocks[l] = blocks[k - 1];
      compress_lanes_avx2(st, blocks);
    }
    detail::add_hash_ops(static_cast<std::uint64_t>(k) * run);

    for (int l = 0; l < k; ++l) {
      Lane& lane = lanes[active[static_cast<std::size_t>(l)]];
      for (int r = 0; r < 8; ++r) jobs_[lane.job].state[static_cast<std::size_t>(r)] = st[r][l];
      lane.next += run;
    }
    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](std::size_t i) {
                                  return lanes[i].next == lanes[i].total_blocks();
                                }),
                 active.end());
  }

  if (active.size() == 1) {
    Lane& lane = lanes[active[0]];
    JobState& job = jobs_[lane.job];
    std::uint64_t n = 0;
    while (lane.next < lane.total_blocks()) {
      detail::sha256_compress(job.state, lane.block(lane.next));
      ++lane.next;
      ++n;
    }
    detail::add_hash_ops(n);
  }

  for (std::size_t i = 0; i < live_; ++i) {
    for (int r = 0; r < 8; ++r) {
      store_u32_be(jobs_[i].digest.bytes.data() + 4 * r,
                   jobs_[i].state[static_cast<std::size_t>(r)]);
    }
  }
}
#endif  // SND_SHA256_MB_X86

const Digest& HashBatch::digest(std::size_t index) const {
  assert(ran_ && index < live_);
  return jobs_[index].digest;
}

void HashBatch::clear() {
  live_ = 0;
  ran_ = false;
}

}  // namespace snd::crypto
