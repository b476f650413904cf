// Thread team: a fixed-layout facade over the dispatch engine.
//
// A Team binds nthreads cores of a platform per a SB/BS mapping and runs
// work-sharing constructs on them; the master (the calling thread)
// participates as tid 0, as in libgomp. run_loop() is the work-sharing
// construct: every member pulls ranges from the loop's scheduler — the
// GOMP_loop_*_start/next protocol — runs the body on them, and joins an
// implicit barrier. run_chain() publishes a whole pipeline::LoopChain with
// nowait semantics: members flow from loop k to loop k+1 and only
// `depends_on` edges gate entry.
//
// Team owns no dispatch machinery. It is one partition of a private
// pool::WorkerPool whose layout never moves: one PoolJob, whose window is
// opened at construction (spawning the workers) and kept. So Team and the
// PoolManager's leases run the same docks, entry ring, completion gates,
// chunk loop and chain loop (pool/worker_pool.h; design in
// src/rt/README.md).
//
// On hosts that are not real AMPs, per-core Throttles emulate the
// asymmetry (rt/throttle.h); on a real AMP, enable AID_BIND_THREADS and
// disable AID_EMULATE_AMP to use hardware asymmetry via affinity.
#pragma once

#include <atomic>
#include <exception>

#include "platform/team_layout.h"
#include "pool/worker_pool.h"
#include "rt/chunk_loop.h"
#include "rt/watchdog.h"
#include "sched/loop_scheduler.h"
#include "sched/scheduler_cache.h"
#include "sched/shard_topology.h"

namespace aid::pipeline {
class LoopChain;
}  // namespace aid::pipeline

namespace aid::rt {

class Team {
 public:
  /// In-flight constructs a run_chain keeps outstanding before the
  /// publisher must wait for the oldest to drain.
  static constexpr u64 kChainRing = pool::PoolJob::kChainRing;

  /// The platform is copied; the layout binds nthreads (0 = all cores) to
  /// cores per `mapping`. `sf_cpu_time` makes the schedulers' sampling use
  /// per-thread CPU time (the paper's footnote-3 oversubscription fix)
  /// instead of the wall clock. AID_FORKJOIN_SPIN / AID_FORKJOIN_YIELD are
  /// read here; their defaults are sized by the team's thread count.
  Team(const platform::Platform& platform, int nthreads,
       platform::Mapping mapping, bool emulate_amp = true,
       bool bind_threads = false, bool sf_cpu_time = false);

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  /// Execute `count` canonical iterations under `spec`. Blocks until the
  /// implicit barrier completes. Not reentrant (no nested regions).
  ///
  /// Failure domain (src/rt/README.md "Failure model"):
  ///  * spec.cancel — cooperative cancellation observed at every
  ///    chunk-take boundary (latency: one chunk); remaining iterations
  ///    are dropped, the barrier still closes, the construct returns
  ///    normally.
  ///  * spec.deadline_ns — the team watchdog cancels the construct when
  ///    the deadline passes (CancelReason::kDeadline).
  ///  * a throwing body — the first exception is captured, cancels the
  ///    construct, and rethrows HERE (on the master) after the barrier
  ///    closed and the scheduler lease was released; workers never unwind.
  void run_loop(i64 count, const sched::ScheduleSpec& spec,
                const RangeBody& body);

  /// Execute a chain of loops with nowait semantics: loop k+1 is dispatched
  /// the moment it is published, each team member advances to it as soon as
  /// its own share of loop k drains, and only `depends_on` edges (full
  /// predecessor completion) gate entry. Blocks until every loop of the
  /// chain has completed (the chain-end flush); an entry's exception
  /// cancels its dependents and rethrows here after that flush. Not
  /// reentrant, and not concurrent with run_loop.
  void run_chain(const pipeline::LoopChain& chain);

  /// Per-iteration convenience over a user iteration space.
  template <typename F>
  void parallel_for(i64 start, i64 end, i64 step,
                    const sched::ScheduleSpec& spec, F&& f) {
    const sched::IterationSpace space(start, end, step);
    run_loop(space.count(), spec,
             [&space, &f](i64 b, i64 e, const WorkerInfo& w) {
               for (i64 c = b; c < e; ++c) f(space.value_of(c), w);
             });
  }

  [[nodiscard]] const platform::TeamLayout& layout() const { return layout_; }
  [[nodiscard]] int nthreads() const { return layout_.nthreads(); }

  /// Stats of the most recent loop (SF estimate, pool removals, ...). For a
  /// chain: the final entry's stats.
  [[nodiscard]] sched::SchedulerStats last_loop_stats() const {
    return last_stats_;
  }

  /// Per-shape scheduler cache every construct of this team draws from
  /// (run_loop, run_chain entries, and the GOMP work-share ring via
  /// Runtime::scheduler_cache). Never invalidated: the team's layout is
  /// fixed for its lifetime.
  [[nodiscard]] sched::SchedulerCache& scheduler_cache() {
    return sched_cache_;
  }

  /// The shard topology this team's dynamic and AID-dynamic constructs
  /// run on (one home per thread on an AMP layout; AID_SHARDS overrides);
  /// every other schedule runs on one pool. Fixed for the team's
  /// lifetime, so the GOMP surface reuses it instead of re-deriving one.
  [[nodiscard]] const sched::ShardTopology& shard_topology() const {
    return shard_topo_;
  }

 private:
  /// Claim the team for one construct (the reentrancy guard).
  void enter();
  /// Release the claim, then rethrow the construct's error if any.
  void leave(const std::exception_ptr& error);
  [[nodiscard]] pool::WorkerPool::Target target() {
    return {&layout_, &shard_topo_, &sched_cache_};
  }

  platform::Platform platform_;
  platform::TeamLayout layout_;
  sched::ShardTopology shard_topo_;
  sched::SchedulerCache sched_cache_;
  sched::SchedulerStats last_stats_;
  std::atomic<bool> in_loop_{false};  // reentrancy guard (loop OR chain)
  /// Declared before pool_: workers touch an entry's completion words
  /// briefly after the master's final wait, so the job must outlive
  /// ~WorkerPool's join.
  pool::PoolJob job_;
  pool::WorkerPool pool_;
  /// Deadline watchdog (lazy thread; armed only for deadline'd specs).
  /// Declared last so it is destroyed FIRST: its monitor thread may read
  /// entry gates/tokens, which must still be alive while it joins.
  Watchdog watchdog_;
};

}  // namespace aid::rt
