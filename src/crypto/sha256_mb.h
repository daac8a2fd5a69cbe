// Multi-buffer SHA-256: independent digests computed 8 streams at a time.
// SHA-256 has no cross-message data flow, so 8 messages can share one pass
// of the compression function with the working variables held in 8-lane
// AVX2 vectors -- each lane performs exactly the 32-bit arithmetic of the
// scalar code, making the digests bit-identical to crypto::Sha256 by
// construction.
//
// HashBatch is the collection point: hot paths that used to hash one item
// at a time (commitment generation over a neighbor set, binding-record
// flood MACs, service recompute rechecks) append jobs -- optionally resuming
// a saved midstate, which is how batched HMAC reuses the ipad/opad work --
// and drain them through run(). The wide kernel runs only when
// util::active_simd_tier() is kAvx2; every other tier, and a batch of one
// job, drains serially through Sha256 (which itself uses SHA-NI where the
// tier and CPU allow). Ragged batches are fine: lanes retire as their
// (padded) block streams end and the last survivor finishes scalar.
//
// The per-thread compression counter (crypto::hash_op_count, feeding the
// §4.3 overhead bench) is advanced by the number of *active lanes* per wide
// pass, so a digest costs the same op count batched or serial -- asserted by
// a regression test.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace snd::crypto {

class HashBatch {
 public:
  /// Writer handle for one pending job; mirrors Sha256's update interface
  /// so the scalar and batched derivations share absorb code. Handles stay
  /// valid across add() calls (they index, not point).
  class Job {
   public:
    Job& update(std::span<const std::uint8_t> data);
    Job& update(std::string_view text);
    Job& update_framed(std::span<const std::uint8_t> data);
    Job& update_framed(std::string_view text);
    Job& update_u64(std::uint64_t v);
    [[nodiscard]] std::size_t index() const { return index_; }

   private:
    friend class HashBatch;
    Job(HashBatch* batch, std::size_t index) : batch_(batch), index_(index) {}
    HashBatch* batch_;
    std::size_t index_;
  };

  /// Starts a fresh-context job.
  Job add();
  /// Starts a job resuming `base` (e.g. an HMAC inner/outer midstate).
  Job add(const Sha256& base);

  [[nodiscard]] std::size_t size() const { return live_; }

  /// Computes every pending digest. Wide when the active tier is kAvx2 and
  /// at least two jobs are pending; serial otherwise. Digests and the
  /// per-thread compression count are identical either way.
  void run();

  /// Digest of the index-th job added; valid after run() until clear().
  [[nodiscard]] const Digest& digest(std::size_t index) const;

  /// Forgets all jobs and digests; job buffer capacity is retained so a
  /// steady-state fill/run/clear cycle stops allocating.
  void clear();

 private:
  struct JobState {
    /// Chaining state after `absorbed` bytes (a multiple of 64).
    std::array<std::uint32_t, 8> state{};
    std::uint64_t absorbed = 0;
    /// Message bytes still to process (any midstate tail is prepended here
    /// at add() time, so block boundaries are at data offsets 0 mod 64).
    util::Bytes data;
    Digest digest;
  };

  JobState& start_job();
  void run_serial();
  void run_wide();

  /// Job arena: the first `live_` entries are the current batch; clear()
  /// only resets `live_`, so each slot's data buffer is recycled.
  std::vector<JobState> jobs_;
  std::size_t live_ = 0;
  bool ran_ = false;
};

}  // namespace snd::crypto
