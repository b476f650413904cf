// Per-core-type sharded iteration pool.
//
// The single fetch-add WorkShare (work_share.h) makes every removal an RMW
// on one cache line shared by all clusters of an asymmetric CPU; at high
// thread counts the runtime overhead the paper measures (Sec. 4.2) is
// dominated by that cross-cluster coherence traffic, not by useful
// removals. ShardedWorkShare splits the canonical space into one shard per
// core type (generalized to N clusters via ShardTopology): each shard's
// hot {next, end} state lives alone in its own cache line and is written
// only by its home cluster on the fast path, so the common-case removal is
// a *cluster-local* RMW. Cross-cluster traffic happens per *steal* or per
// *bulk rebalance* — not per chunk.
//
// Mechanics (full design note + memory-ordering argument in
// src/sched/README.md):
//
//  * Each shard owns a small ring of SEGMENTS. A segment is ONE atomic
//    64-bit word packing {next:32 | end:32}. A removal is a fetch_add of
//    `want` on the low half — the same instruction count as WorkShare —
//    and because the returned word carries both cursor and bound, the
//    clamp is computed from an atomic snapshot: no torn {next, end} pair
//    can ever be observed. Takes larger than kFetchAddWantMax go through a
//    CAS so the low half cannot carry into the end bits.
//  * take(want, tid, home): fetch_add on the home shard; when home drains,
//    scan the other shards — migrating HALF of a fat victim's remainder
//    into the home shard in one CAS (bulk rebalance) or, for thin
//    victims, removing a single chunk remotely (steal).
//  * rebalance(weights): the estimator-driven path — the AID schedulers
//    feed their measured speedup factors in after each phase, and one
//    contiguous block moves from the shard that would finish late to the
//    shard that would finish early.
//  * Exactly-once: every ownership transfer (take, cut, install) is a
//    single CAS/fetch_add on one segment word, so transfers linearize per
//    segment; a cut [e-b, e) can only succeed when the same atomic
//    snapshot shows next <= e-b, and takers advance next only — the cut
//    block can never overlap a claim (README has the full argument).
//
// Fallback: with one shard (AID_SHARDS=1, a uniform layout, a
// default-constructed topology, or a loop too large for the 32-bit
// packing) the pool delegates to a plain WorkShare — bit-for-bit the
// classic single-pool behavior, so symmetric layouts cannot regress.
#pragma once

#include <atomic>
#include <vector>

#include "common/check.h"
#include "common/padded.h"
#include "common/types.h"
#include "sched/iteration_space.h"
#include "sched/shard_topology.h"
#include "sched/work_share.h"

namespace aid::sched {

class ShardedWorkShare {
 public:
  /// Segment slots per shard: slot 0 holds the shard's initial split;
  /// the rest accept migrated blocks. Bounds concurrent in-flight
  /// migrations per shard, scan cost stays a few relaxed loads.
  static constexpr int kSegsPerShard = 4;
  /// Loops with count >= this fall back to the single-pool path (the
  /// packed halves are 32-bit).
  static constexpr i64 kPackedCountLimit = i64{1} << 31;
  /// Takes larger than this use CAS instead of fetch_add so worst-case
  /// overshoot (one want per thread between probe and drain) can never
  /// carry into the end bits: count + threads * kFetchAddWantMax < 2^32.
  static constexpr i64 kFetchAddWantMax = i64{1} << 24;
  /// Minimum remainder a foreign shard must hold before the steal path
  /// bulk-migrates instead of removing one chunk remotely.
  static constexpr i64 kBulkStealMin = 64;
  /// Shards per pool: one per populated core type, so the estimator's
  /// kMaxCoreTypes bounds it. Lets rebalance() keep its per-shard snapshot
  /// on the stack.
  static constexpr int kMaxShards = 8;

  /// `topo` assigns every tid a home shard (empty topology = one shard:
  /// the classic pool, with zero extra allocation); `nthreads` sizes the
  /// per-thread counter slots, as in WorkShare.
  explicit ShardedWorkShare(ShardTopology topo = {}, int nthreads = 1);

  /// Arm for a loop of `count` canonical iterations, split across shards
  /// proportional to the topology's nominal capacities.
  void reset(i64 count);
  /// Arm with explicit per-shard weights (one per shard; the AID
  /// schedulers pass measured speedup-factor aggregates).
  void reset(i64 count, const std::vector<double>& weights);

  /// Remove up to `want` iterations, preferring the caller's home shard.
  /// `home` is the ThreadContext's home-shard id (clamped defensively).
  /// Returns an empty range only after every shard looked drained.
  IterRange take(i64 want, int tid, int home) {
    AID_DCHECK(want >= 1);
    if (single_mode_) {
      return single_.take(want, tid);
    }
    if (poisoned_.load(std::memory_order_relaxed)) return {count_, count_};
    AID_CHECK(tid >= 0 && tid < nthreads_);
    if (home < 0 || home >= nshards_) home = 0;
    IterRange r = take_from_shard(home, want);
    if (!r.empty()) {
      note_removal(tid, /*local=*/true);
      return r;
    }
    return take_stealing(want, tid, home);
  }

  /// Remove with a size recomputed from the *segment's* remaining count
  /// (guided semantics become per-cluster under sharding; with one shard
  /// this is exactly WorkShare::take_adaptive). Pure CAS — never
  /// overshoots, so it needs no fetch_add want cap.
  template <typename WantFn>
  IterRange take_adaptive(WantFn&& want_of, int tid, int home) {
    if (single_mode_) {
      return single_.take_adaptive(static_cast<WantFn&&>(want_of), tid);
    }
    if (poisoned_.load(std::memory_order_relaxed)) return {count_, count_};
    AID_CHECK(tid >= 0 && tid < nthreads_);
    if (home < 0 || home >= nshards_) home = 0;
    for (int k = 0; k < nshards_; ++k) {
      const int s = (home + k) % nshards_;
      const int hint = hint_of(s).load(std::memory_order_relaxed);
      for (int j = 0; j < kSegsPerShard; ++j) {
        int i = hint + j;
        if (i >= kSegsPerShard) i -= kSegsPerShard;
        std::atomic<u64>& word = seg(s, i);
        u64 w = word.load(std::memory_order_acquire);
        for (;;) {
          const i64 n = unpack_next(w);
          const i64 e = unpack_end(w);
          if (n >= e) break;
          i64 want = want_of(e - n);
          AID_DCHECK(want >= 1);
          const i64 stop = n + want < e ? n + want : e;
          if (word.compare_exchange_weak(w, pack(stop, e),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
            if (j != 0) hint_of(s).store(i, std::memory_order_relaxed);
            note_removal(tid, /*local=*/k == 0);
            return {n, stop};
          }
        }
      }
    }
    return {count_, count_};
  }

  /// Cancellation poison. Sharded mode uses a FLAG rather than draining
  /// the segment words: segment stores would race the migrate/install
  /// protocol (whose merge-back path asserts an end it believes only the
  /// migration token holder can move). One relaxed flag load per take is
  /// the whole fast-path cost; cancel latency stays one chunk.
  void poison() {
    if (single_mode_) {
      single_.poison();
      return;
    }
    poisoned_.store(true, std::memory_order_release);
  }

  /// Estimator-driven bulk rebalance: `weights[s]` is shard s's measured
  /// progress rate (e.g. sum over member threads of their speedup
  /// factors). Moves one contiguous block of at least `min_block`
  /// iterations from the most over-provisioned shard (vs. a
  /// weight-proportional split of the global remainder) to the most
  /// under-provisioned one. Returns true when a block actually moved.
  /// Safe to call concurrently with takes/steals from any thread.
  bool rebalance(const std::vector<double>& weights, i64 min_block, int tid);

  /// Iterations not yet handed out (may be stale under concurrency).
  [[nodiscard]] i64 remaining() const {
    if (single_mode_) return single_.remaining();
    i64 sum = 0;
    for (int s = 0; s < nshards_; ++s) sum += remaining_of_shard(s);
    return sum;
  }

  [[nodiscard]] i64 remaining_of_shard(int s) const {
    if (single_mode_) return single_.remaining();
    i64 sum = 0;
    for (int i = 0; i < kSegsPerShard; ++i) {
      const u64 w = seg(s, i).load(std::memory_order_acquire);
      const i64 n = unpack_next(w);
      const i64 e = unpack_end(w);
      if (n < e) sum += e - n;
    }
    return sum;
  }

  [[nodiscard]] i64 end() const { return count_; }
  [[nodiscard]] int nshards() const { return single_mode_ ? 1 : nshards_; }
  /// Shards of the topology, whatever the current loop's mode: what
  /// nshards() reports whenever the pool runs sharded. Sizes weight
  /// buffers that callers fill once per phase.
  [[nodiscard]] int topology_shards() const { return nshards_; }
  /// The tid's home shard in the topology, whatever the current loop's
  /// mode (a single-mode take ignores it), so weights can be computed
  /// before the first arm.
  [[nodiscard]] int home_of(int tid) const {
    return config_single_ ? 0 : topo_.home_of(tid);
  }

  /// Successful removals (all shards; parity with WorkShare::removals()).
  [[nodiscard]] i64 removals() const {
    if (single_mode_) return single_.removals();
    i64 sum = 0;
    for (const auto& c : counters_)
      sum += c.local.load(std::memory_order_relaxed) +
             c.remote.load(std::memory_order_relaxed);
    return sum;
  }

  [[nodiscard]] i64 removals_of(int tid) const {
    if (single_mode_) return single_.removals_of(tid);
    AID_CHECK(tid >= 0 && tid < nthreads_);
    const Counters& c = counters_[static_cast<usize>(tid)];
    return c.local.load(std::memory_order_relaxed) +
           c.remote.load(std::memory_order_relaxed);
  }

  /// Removals served by the taker's home shard. In single-shard mode every
  /// removal is "home" by definition (there is no cross-cluster line).
  [[nodiscard]] i64 local_removals() const {
    if (single_mode_) return single_.removals();
    return sum_counter(&Counters::local);
  }
  /// Removals served by a foreign shard (chunk steals).
  [[nodiscard]] i64 remote_removals() const {
    return single_mode_ ? 0 : sum_counter(&Counters::remote);
  }
  /// Contiguous blocks migrated between shards (steal-path bulk moves +
  /// estimator-driven rebalances).
  [[nodiscard]] i64 rebalances() const {
    return single_mode_ ? 0 : sum_counter(&Counters::rebalances);
  }
  /// Total iterations carried by those blocks.
  [[nodiscard]] i64 rebalanced_iters() const {
    return single_mode_ ? 0 : sum_counter(&Counters::rebalanced_iters);
  }

 private:
  /// Per-thread stat slots, one cache line each: the hot path touches only
  /// the caller's own line (relaxed adds), mirroring WorkShare's removal
  /// counters.
  struct alignas(kCacheLineBytes) Counters {
    std::atomic<i64> local{0};
    std::atomic<i64> remote{0};
    std::atomic<i64> rebalances{0};
    std::atomic<i64> rebalanced_iters{0};
  };

  static constexpr u64 kNextMask = 0xffffffffULL;
  [[nodiscard]] static u64 pack(i64 next, i64 end) {
    return (static_cast<u64>(end) << 32) |
           (static_cast<u64>(next) & kNextMask);
  }
  [[nodiscard]] static i64 unpack_next(u64 w) {
    return static_cast<i64>(w & kNextMask);
  }
  [[nodiscard]] static i64 unpack_end(u64 w) {
    return static_cast<i64>(w >> 32);
  }

  [[nodiscard]] std::atomic<u64>& seg(int shard, int i) {
    return segs_[static_cast<usize>(shard * kSegsPerShard + i)].value;
  }
  [[nodiscard]] const std::atomic<u64>& seg(int shard, int i) const {
    return segs_[static_cast<usize>(shard * kSegsPerShard + i)].value;
  }
  [[nodiscard]] std::atomic<int>& hint_of(int shard) {
    return hints_[static_cast<usize>(shard)].value;
  }

  void note_removal(int tid, bool local) {
    Counters& c = counters_[static_cast<usize>(tid)];
    (local ? c.local : c.remote).fetch_add(1, std::memory_order_relaxed);
  }

  /// One shard's take: read-only drain probe per segment, then one
  /// fetch_add (or CAS for oversized wants). Empty when the whole shard
  /// looked drained. The per-shard hint remembers the likely-live segment
  /// so the common case probes exactly one word even after migrations
  /// populated higher slots (it is advisory: stale hints cost scan steps,
  /// never correctness).
  IterRange take_from_shard(int s, i64 want) {
    const int hint = hint_of(s).load(std::memory_order_relaxed);
    for (int j = 0; j < kSegsPerShard; ++j) {
      int i = hint + j;
      if (i >= kSegsPerShard) i -= kSegsPerShard;
      std::atomic<u64>& word = seg(s, i);
      u64 w = word.load(std::memory_order_acquire);
      i64 n = unpack_next(w);
      i64 e = unpack_end(w);
      if (n >= e) continue;  // drained segment: stay read-only
      if (want <= kFetchAddWantMax) {
        const u64 prev =
            word.fetch_add(static_cast<u64>(want), std::memory_order_acq_rel);
        n = unpack_next(prev);
        e = unpack_end(prev);
        if (n >= e) continue;  // lost the drain race: bounded overshoot
        if (j != 0) hint_of(s).store(i, std::memory_order_relaxed);
        return {n, n + want < e ? n + want : e};
      }
      // Oversized want (AID block takes): CAS so the low half can never
      // carry into the end bits.
      for (;;) {
        n = unpack_next(w);
        e = unpack_end(w);
        if (n >= e) break;
        const i64 stop = n + want < e ? n + want : e;
        if (word.compare_exchange_weak(w, pack(stop, e),
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
          if (j != 0) hint_of(s).store(i, std::memory_order_relaxed);
          return {n, stop};
        }
      }
    }
    return {count_, count_};
  }

  /// Cold path of take(): home drained — bulk-migrate from a fat foreign
  /// shard or chunk-steal from a thin one.
  IterRange take_stealing(i64 want, int tid, int home);

  /// Cut up to `want_block` iterations (at least `min_block`, leaving the
  /// donor at least `min_block`) off the top of shard `from` and install
  /// them as a fresh segment of shard `to`. Returns false without cutting
  /// when `to` shows no drained slot. Serialized by migrating_ so a cut
  /// block can always be merged back if a racing migrator took the slot.
  bool migrate(int from, int to, i64 want_block, i64 min_block, int tid);

  /// Read-only probe: does shard `s` have a drained segment slot that an
  /// install could take?
  [[nodiscard]] bool has_drained_slot(int s) const {
    for (int i = 0; i < kSegsPerShard; ++i) {
      const u64 w = seg(s, i).load(std::memory_order_acquire);
      if (unpack_next(w) >= unpack_end(w)) return true;
    }
    return false;
  }

  /// Install [begin, end) into a drained segment slot of shard `to`.
  /// Caller holds migrating_. Returns false when all slots are live.
  bool install(int to, i64 begin, i64 end);

  [[nodiscard]] i64 sum_counter(std::atomic<i64> Counters::* member) const {
    i64 sum = 0;
    for (const auto& c : counters_)
      sum += (c.*member).load(std::memory_order_relaxed);
    return sum;
  }

  ShardTopology topo_;
  int nshards_ = 1;
  int nthreads_ = 1;
  bool config_single_ = true;  ///< topology has one shard: always delegate
  bool single_mode_ = true;    ///< set per reset(): 1 shard or oversized loop
  i64 count_ = 0;
  WorkShare single_;  ///< the classic pool, used whenever single_mode_
  std::vector<Padded<std::atomic<u64>>> segs_;  // shard-major segment words
  std::vector<Padded<std::atomic<int>>> hints_;  // per shard: live-seg hint
  std::vector<Counters> counters_;              // one per thread
  /// Migration mutual exclusion (try-acquire only — contenders fall back
  /// to plain chunk steals, so no take ever blocks on it). Single-writer
  /// migration is what makes the merge-back path of a failed install
  /// always applicable: nobody else can have moved the donor's end.
  std::atomic<int> migrating_{0};
  /// Cancellation poison flag (sharded mode only; see poison()).
  std::atomic<bool> poisoned_{false};
};

}  // namespace aid::sched
