// Thread team: the real-thread work-sharing runtime.
//
// A Team owns nthreads−1 persistent worker threads (the master participates
// as tid 0, as in libgomp). run_loop() is the work-sharing construct: every
// team member repeatedly pulls ranges from the loop's scheduler — the
// GOMP_loop_*_start/next protocol — executes the body on them, and joins an
// implicit barrier. run_chain() is the pipelined multi-construct form: a
// whole pipeline::LoopChain is published as consecutive dispatch
// generations and team members flow from loop k to loop k+1 with nowait
// semantics (no inter-construct barrier; see below).
//
// The fork/join critical path is lock-free in steady state (see
// src/rt/README.md for the design): dispatch is a per-worker cache-line-
// padded generation counter (a distributed sense-reversing barrier — each
// worker's "sense" is the last generation it observed), completion is an
// atomic countdown, and both sides wait by bounded spinning with CPU-relax
// hints before blocking in std::atomic::wait (futex). No mutex or
// condition variable exists anywhere in the runtime.
//
// Generation ring: every published construct (a run_loop, or one entry of a
// run_chain) occupies the chain-slot ring entry `generation % kChainRing`.
// A worker that observes its dock at generation g processes every slot in
// (last-seen, g] in order, so the master can keep publishing loop k+1
// while stragglers drain loop k; per-slot completion is an atomic countdown
// whose last decrementer publishes the slot's generation into a monotone
// `completed` word (the wait channel for dependent loops and for the
// master's flush). A slot is reused for generation g only once its previous
// occupant g - kChainRing has fully completed.
//
// Thread-to-core semantics come from a TeamLayout (SB/BS mapping). On hosts
// that are not real AMPs, per-worker Throttles emulate the asymmetry
// (rt/throttle.h); on a real AMP, enable AID_BIND_THREADS and disable
// AID_EMULATE_AMP to use hardware asymmetry via affinity.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/completion_gate.h"
#include "common/padded.h"
#include "common/time_source.h"
#include "platform/team_layout.h"
#include "rt/chunk_loop.h"
#include "rt/runtime_config.h"
#include "rt/throttle.h"
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
  /// In-flight constructs the generation ring can hold: a run_chain keeps
  /// up to this many loops outstanding before the publisher must wait for
  /// the oldest to drain. Power of two (slot index is gen % kChainRing).
  static constexpr u64 kChainRing = 8;

  /// The platform is copied; the layout binds nthreads (0 = all cores) to
  /// cores per `mapping`. `sf_cpu_time` makes the schedulers' sampling use
  /// per-thread CPU time (the paper's footnote-3 oversubscription fix)
  /// instead of the wall clock.
  Team(const platform::Platform& platform, int nthreads,
       platform::Mapping mapping, bool emulate_amp = true,
       bool bind_threads = false, bool sf_cpu_time = false);
  ~Team();

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
  /// chain has completed (the chain-end flush). Not reentrant, and not
  /// concurrent with run_loop.
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
  /// fixed for its lifetime. Exposed for the GOMP surface and for
  /// hit/miss observability in tests.
  [[nodiscard]] sched::SchedulerCache& scheduler_cache() {
    return sched_cache_;
  }

  /// The shard topology every construct of this team arms (fixed for the
  /// team's lifetime). Exposed so the GOMP surface reuses it instead of
  /// re-deriving one (env read + allocation) per parallel region.
  [[nodiscard]] const sched::ShardTopology& shard_topology() const {
    return shard_topo_;
  }

 private:
  /// One worker's dispatch mailbox, alone in its cache line (via Padded):
  /// the generation of the last job published to this worker. The worker's
  /// wait condition is gen != last-seen (the sense-reversal), and its spin
  /// phase polls only this private line. Blocking happens on the *shared*
  /// epoch_ word instead, so one futex broadcast wakes the whole team.
  struct Dock {
    std::atomic<u64> gen{0};
  };

  /// One in-flight construct (ring entry `generation % kChainRing`).
  /// `sched`/`body`/`dep_gen` are plain fields: the master writes them
  /// before the release-store that publishes the generation to the docks,
  /// and no worker touches a slot whose generation it has not observed.
  /// The gate's monotone watermark makes a dependency wait on an
  /// already-reused slot return immediately instead of deadlocking on the
  /// new occupant's countdown (common/completion_gate.h). Scheduler
  /// lifetime is the cache lease: the master releases an entry's
  /// scheduler back to sched_cache_ only after the construct's flush.
  struct ChainSlot {
    sched::LoopScheduler* sched = nullptr;
    const RangeBody* body = nullptr;
    u64 dep_gen = 0;  ///< generation that must complete first (0 = none)
    CompletionGate gate;
    /// The occupant's cancellation token. reset + re-bound by publish()
    /// (safe: the ring reuse guard proved the previous occupant flushed),
    /// read by every participant at each chunk take, harvested by the
    /// master before the slot is reused or the construct returns.
    CancelToken token;
  };

  void worker_main(int tid);
  void participate(int tid, sched::LoopScheduler& sched,
                   const RangeBody& body, CancelToken* token);

  /// Spin-then-block until generation `gen` has fully completed.
  void wait_generation(u64 gen) {
    slot_of(gen).gate.wait(gen, spin_budget_, yield_budget_);
  }

  [[nodiscard]] ChainSlot& slot_of(u64 gen) {
    return ring_[gen % kChainRing];
  }

  /// Master side: stage `sched`/`body` into the next generation's ring slot
  /// and publish it to every dock (the slot's previous occupant must have
  /// completed — callers enforce the ring reuse guard). Returns the new
  /// generation.
  u64 publish(sched::LoopScheduler* sched, const RangeBody* body,
              u64 dep_gen, CancelToken* external);

  /// Arm the deadline watchdog for an in-flight construct when its spec
  /// asks for one (returns 0 otherwise — constructs without deadlines
  /// never touch the watchdog mutex).
  u64 maybe_arm_watchdog(const sched::ScheduleSpec& spec, ChainSlot* slot,
                         u64 gen, sched::LoopScheduler* sched,
                         CancelToken* serial_token);

  /// Worker side: spin-then-block until `dock.gen` leaves `seen`; returns
  /// the new generation.
  u64 wait_for_dispatch(Dock& dock, u64 seen);

  platform::Platform platform_;
  platform::TeamLayout layout_;
  /// Shard layout for every construct this team arms: one pool shard per
  /// populated core type (AID_SHARDS overrides; =1 is the single-pool
  /// fallback). Fixed for the team's lifetime because the layout is.
  sched::ShardTopology shard_topo_;
  /// Per-shape scheduler instances, re-armed per construct instead of
  /// reallocated (sched/scheduler_cache.h). Valid for the team's lifetime
  /// — the layout (and so the shard topology) never changes.
  sched::SchedulerCache sched_cache_;
  SteadyTimeSource clock_;
  ThreadCpuTimeSource cpu_clock_;
  const TimeSource* sf_clock_;  // what the schedulers' sampling observes
  std::vector<Padded<Throttle>> throttles_;

  // Job dispatch: the master stages the construct into its ring slot (plain
  // stores), then publishes the new generation into every dock and finally
  // into epoch_ with release-or-stronger stores; a worker's acquire read of
  // its dock's generation makes every staged slot up to that generation
  // visible. Workers that exhaust their spin budget sleep in epoch_.wait()
  // (futex) after bumping sleepers_ — the master pays one notify_all
  // syscall only when sleepers_ != 0. Completion: every team member
  // (master included) decrements the slot's countdown; the last one
  // publishes the generation into the slot's `completed` word, which
  // dependency waits and the master's flush read with acquire ordering —
  // making all scheduler mutations visible before stats() is read. Steady
  // state takes no lock.
  u64 job_generation_ = 0;  // master-only
  std::array<ChainSlot, kChainRing> ring_;
  std::atomic<bool> shutting_down_{false};
  Padded<std::atomic<u64>> epoch_;        // workers' shared sleep channel
  Padded<std::atomic<int>> sleepers_;     // workers blocked in epoch_.wait
  std::vector<Padded<Dock>> docks_;  // worker tid t uses docks_[t - 1]
  std::atomic<bool> in_loop_{false};  // reentrancy guard (loop OR chain)
  i32 spin_budget_ = 0;   // cpu_relax budget before yielding/blocking
  i32 yield_budget_ = 0;  // sched_yield budget before blocking (see
                          // common/spin_wait.h: oversubscribed hosts only)

  sched::SchedulerStats last_stats_;
  std::vector<std::jthread> workers_;
  /// Deadline watchdog (lazy thread; armed only for deadline'd specs).
  /// Declared last so it is destroyed FIRST: its monitor thread may read
  /// ring gates/tokens, which must still be alive while it joins.
  Watchdog watchdog_;
};

}  // namespace aid::rt
