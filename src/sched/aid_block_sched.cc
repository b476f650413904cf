#include "sched/aid_block_sched.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace aid::sched {

AidBlockScheduler::AidBlockScheduler(i64 count,
                                     const platform::TeamLayout& layout,
                                     i64 chunk, double aid_fraction,
                                     std::optional<double> offline_sf,
                                     std::string name, ShardTopology topo)
    : pool_(std::move(topo), layout.nthreads()),
      estimator_(layout.num_core_types()),
      count_(count),
      chunk_(chunk > 0 ? chunk : 1),
      aid_fraction_(aid_fraction),
      offline_sf_(offline_sf),
      name_(std::move(name)),
      nthreads_(layout.nthreads()),
      per_thread_(static_cast<usize>(layout.nthreads())) {
  AID_CHECK(count >= 0);
  AID_CHECK_MSG(aid_fraction > 0.0 && aid_fraction <= 1.0,
                "AID fraction must be in (0, 1]");
  threads_per_type_.resize(static_cast<usize>(layout.num_core_types()));
  for (int t = 0; t < layout.num_core_types(); ++t)
    threads_per_type_[static_cast<usize>(t)] = layout.threads_of_type(t);
  // Nominal speeds (sampling fallback) come from the platform via the
  // layout's per-thread view; unpopulated types default to 1.0.
  nominal_speed_.assign(static_cast<usize>(layout.num_core_types()), 1.0);
  type_of_tid_.resize(static_cast<usize>(layout.nthreads()));
  for (int tid = 0; tid < layout.nthreads(); ++tid) {
    nominal_speed_[static_cast<usize>(layout.core_type_of(tid))] =
        layout.speed_of(tid);
    type_of_tid_[static_cast<usize>(tid)] = layout.core_type_of(tid);
  }

  sf_.resize(static_cast<usize>(layout.num_core_types()), 1.0);
  shard_rate_.assign(static_cast<usize>(pool_.topology_shards()), 0.0);
  reset(count);
}

void AidBlockScheduler::reset(i64 count) {
  AID_CHECK(count >= 0);
  count_ = count;
  estimator_.reset(nthreads_);
  for (auto& pt : per_thread_) *pt = PerThread{};
  k_ = 0.0;
  reported_sf_ = 0.0;
  aid_ready_.store(false, std::memory_order_release);

  if (offline_sf_) {
    // Fig. 9 variant: no sampling. SF vector = nominal shape with the
    // fastest type pinned to the supplied value.
    for (usize t = 0; t < sf_.size(); ++t) sf_[t] = nominal_speed_[t];
    sf_.back() = *offline_sf_;
    sf_.front() = 1.0;
    k_ = aid_k(aid_fraction_ * static_cast<double>(count_), threads_per_type_,
               sf_);
    reported_sf_ = sf_.back();
    // No sampling phase will rebalance later: arm the shards directly
    // proportional to the offline SF so the single AID block per thread is
    // served by its home shard. One arm, with the right weights (reset is
    // single-threaded, so computing them first is safe). Ask the topology,
    // not the pool's current mode: before the first arm the pool still
    // reports one shard.
    if (pool_.topology_shards() > 1) {
      pool_.reset(count, shard_rates());
    } else {
      pool_.reset(count);
    }
    for (auto& pt : per_thread_) pt->state = State::kAid;
    aid_ready_.store(true, std::memory_order_release);
  } else {
    pool_.reset(count);
  }
}

const std::vector<double>& AidBlockScheduler::shard_rates() {
  std::fill(shard_rate_.begin(), shard_rate_.end(), 0.0);
  for (int t = 0; t < nthreads_; ++t)
    shard_rate_[static_cast<usize>(pool_.home_of(t))] +=
        sf_[static_cast<usize>(type_of_tid_[static_cast<usize>(t)])];
  return shard_rate_;
}

void AidBlockScheduler::finalize(ThreadContext& tc) {
  // Called by exactly one thread (the last to record a sample) before any
  // other thread can observe aid_ready_ == true.
  estimator_.speedup_factors_into(nominal_speed_, sf_);
  k_ = aid_k(aid_fraction_ * static_cast<double>(count_), threads_per_type_,
             sf_);
  // Report the SF of the fastest populated type (the paper's big-to-small
  // speedup factor for the loop).
  for (usize t = sf_.size(); t-- > 0;) {
    if (threads_per_type_[t] > 0) {
      reported_sf_ = sf_[t];
      break;
    }
  }
  if (pool_.nshards() > 1) {
    // Pre-position the shards for the uneven AID blocks: one bulk
    // migration toward the measured per-cluster rates, instead of every
    // thread clamping short at home and draining the tail remotely.
    pool_.rebalance(shard_rates(), /*min_block=*/chunk_, tc.tid);
  }
  aid_ready_.store(true, std::memory_order_release);
}

i64 AidBlockScheduler::target_of_type(int core_type) const {
  AID_CHECK(core_type >= 0 &&
            core_type < static_cast<int>(threads_per_type_.size()));
  return std::llround(sf_[static_cast<usize>(core_type)] * k_);
}

bool AidBlockScheduler::take_aid_block(ThreadContext& tc, PerThread& pt,
                                       IterRange& out) {
  pt.state = State::kDrain;
  const i64 want = target_of_type(tc.core_type) - pt.delta;
  if (want >= 1) {
    const IterRange r = pool_.take(want, tc.tid, tc.shard);
    if (!r.empty()) {
      out = r;
      return true;
    }
    return false;  // pool exhausted: loop over for this thread
  }
  // Thread already covered its share while waiting; fall through to drain.
  return drain(out, tc.tid, tc.shard);
}

bool AidBlockScheduler::drain(IterRange& out, int tid, int shard) {
  const IterRange r = pool_.take(chunk_, tid, shard);
  if (r.empty()) return false;
  out = r;
  return true;
}

bool AidBlockScheduler::next(ThreadContext& tc, IterRange& out) {
  // Cancellation: poison the pool so every state of every thread's machine
  // funnels to its drained-pool exit (each state takes, sees empty, and
  // returns false — including kWait, which never spins inside next()).
  if (tc.cancelled()) [[unlikely]] {
    pool_.poison();
    out = {pool_.end(), pool_.end()};
    return false;
  }
  AID_DCHECK(tc.tid >= 0 && tc.tid < nthreads_);
  PerThread& pt = *per_thread_[static_cast<usize>(tc.tid)];

  switch (pt.state) {
    case State::kSampling: {
      pt.sample_start = tc.now();
      const IterRange r = pool_.take(chunk_, tc.tid, tc.shard);
      if (r.empty()) {
        // Loop smaller than the team's sampling demand: this thread has
        // nothing to sample. Still contribute to the completion count so
        // the SF computation is not stalled for the others.
        if (estimator_.record(tc.core_type, 0, 0)) finalize(tc);
        pt.state = State::kDrain;
        return false;
      }
      pt.sampled = r.size();
      pt.delta += r.size();
      pt.state = State::kAfterSampling;
      out = r;
      return true;
    }

    case State::kAfterSampling: {
      const Nanos elapsed = tc.now() - pt.sample_start;
      if (estimator_.record(tc.core_type, elapsed, pt.sampled)) finalize(tc);
      pt.state = State::kWait;
      [[fallthrough]];
    }

    case State::kWait: {
      if (!aid_ready_.load(std::memory_order_acquire)) {
        // SAMPLING_WAIT: keep the core busy with dynamic chunk steals.
        const IterRange r = pool_.take(chunk_, tc.tid, tc.shard);
        if (r.empty()) return false;
        pt.delta += r.size();
        out = r;
        return true;
      }
      pt.state = State::kAid;
      [[fallthrough]];
    }

    case State::kAid:
      return take_aid_block(tc, pt, out);

    case State::kDrain:
      return drain(out, tc.tid, tc.shard);
  }
  AID_CHECK(false);
  return false;
}

SchedulerStats AidBlockScheduler::stats() const {
  return {.pool_removals = pool_.removals(),
          .estimated_sf = reported_sf_,
          .aid_phases = aid_ready() ? 1 : 0,
          .local_removals = pool_.local_removals(),
          .steal_removals = pool_.remote_removals(),
          .shard_rebalances = pool_.rebalances()};
}

}  // namespace aid::sched
