// Process-wide worker pool: one lazily-spawned persistent worker per
// platform core, dispatchable per *partition*.
//
// Team (rt/team.h) owns a private set of workers sized to one app; the
// WorkerPool instead owns at most one worker per platform core and lets a
// caller run a loop on any subset of cores (a TeamLayout built over an
// explicit core list). Two apps holding disjoint partitions dispatch
// concurrently without sharing any synchronization beyond the sleep epoch.
//
// The dispatch mechanism is PR 1's generation dock, per core instead of per
// team thread, extended (PR 3) with a per-job ring of in-flight chain
// entries: each PoolJob carries kChainRing entry slots `{scheduler, body,
// dependency, completion countdown}` keyed by a monotone entry sequence
// number, and each core dock maps its generations onto those sequences
// through a *window* base pair {base_gen, base_seq}. Publishing entry seq
// to a partition bumps every member dock by one generation; a worker that
// observes its dock at generation g executes every entry in (last-seen, g]
// in order. That is what lets a chain of loops flow with nowait semantics:
// the app's master publishes loop k+1 while stragglers still drain loop k,
// and only explicit dependency edges (entry.dep_seq) gate entry.
//
// Repartitioning therefore still needs no thread teardown — a revoked core
// simply stops having windows opened on its dock and its worker parks on
// the shared epoch futex. A window never spans a repartition: the owning
// master flushes every published entry before it rewrites dock window
// fields or changes the partition (see PoolManager::run_chain).
//
// The calling thread (the app's master) participates as partition tid 0 on
// layout.core_of(0), exactly like Team's master: single-core partitions
// run fully serial with zero dispatches, and serial phases run inside the
// partition's core budget.
//
// Ownership contract (enforced by PoolManager, assumed here): at any
// moment each core is published to by at most one master, and ownership of
// a core moves between masters only while no job is in flight on it. The
// pool itself is mechanism, not policy.
#pragma once

#include <array>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/completion_gate.h"
#include "common/padded.h"
#include "common/time_source.h"
#include "platform/platform.h"
#include "platform/team_layout.h"
#include "rt/chunk_loop.h"
#include "rt/throttle.h"
#include "rt/watchdog.h"
#include "sched/loop_scheduler.h"

namespace aid::pool {

/// One app's in-flight dispatch state: a ring of chain entries keyed by a
/// monotone sequence number (a plain run_loop is a chain of one). The
/// caller owns the object and must keep it alive until the pool shuts down
/// (workers touch an entry's completion words briefly after the master's
/// final wait returns; the PoolManager parks retired jobs instead of
/// freeing them).
struct PoolJob {
  /// In-flight constructs the entry ring can hold before the publisher
  /// must wait for the oldest to drain. Matches rt::Team::kChainRing.
  static constexpr u64 kChainRing = 8;

  /// One in-flight construct. `sched`/`body`/`dep_seq` are plain fields,
  /// ordered by the owning dock generations' release-stores; completion
  /// is the shared gate protocol (common/completion_gate.h, same as
  /// rt::Team::ChainSlot) keyed by the monotone entry sequence.
  struct Entry {
    sched::LoopScheduler* sched = nullptr;
    const rt::RangeBody* body = nullptr;
    u64 dep_seq = 0;  ///< entry sequence that must complete first (0 = none)
    CompletionGate gate;
    /// The occupant's cancellation token: reset + re-bound by the staging
    /// master (ring reuse guard already held), read at every chunk take,
    /// harvested before the slot is reused or the construct returns.
    CancelToken token;
  };

  /// The partition the current window runs on. Stable for a window's whole
  /// lifetime (the master flushes before changing it).
  const platform::TeamLayout* layout = nullptr;
  /// Next entry sequence to publish (master-only; monotone for the job's
  /// lifetime, so `completed` never goes backwards across apps recycling
  /// the job). Sequence 0 is reserved as "no dependency".
  u64 next_seq = 1;
  std::array<Entry, kChainRing> ring;

  [[nodiscard]] Entry& entry_of(u64 seq) { return ring[seq % kChainRing]; }
  [[nodiscard]] const Entry& entry_of(u64 seq) const {
    return ring[seq % kChainRing];
  }
};

class WorkerPool {
 public:
  struct Options {
    bool emulate_amp = true;   ///< throttle small cores on symmetric hosts
    bool bind_threads = false; ///< best-effort per-core affinity
    bool sf_cpu_time = false;  ///< schedulers sample per-thread CPU time
  };

  WorkerPool(const platform::Platform& platform, Options options);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Execute `count` canonical iterations of `sched`/`body` on the
  /// partition described by `layout` (core ids are platform core ids).
  /// The calling thread participates as tid 0; tids 1.. are dispatched to
  /// the workers owning those cores (spawned on first use). Blocks until
  /// the partition's implicit barrier completes. Equivalent to a
  /// one-entry window: open_window + publish_entry + run_entry_master +
  /// wait_entry.
  ///
  /// Failure domain: the construct's token is bound to the two optional
  /// parent tokens (the caller's spec token and the app-lease token); a
  /// throwing body is captured and RETURNED (never thrown) so the caller
  /// — who owns the lease — can release it before rethrowing. When
  /// `watchdog` is non-null and deadline_ns > 0, a deadline is armed for
  /// the construct and disarmed before returning.
  [[nodiscard]] std::exception_ptr run_loop(
      const platform::TeamLayout& layout, i64 count,
      sched::LoopScheduler& sched, const rt::RangeBody& body, PoolJob& job,
      const CancelToken* parent_a = nullptr,
      const CancelToken* parent_b = nullptr,
      rt::Watchdog* watchdog = nullptr, i64 deadline_ns = 0);

  // --- chain windows (the loop-pipeline dispatch path) ---------------------
  //
  // A *window* is a run of consecutively published entries executed on one
  // fixed partition. PoolManager::run_chain drives these primitives so it
  // can interleave repartition commits between ring entries: flush, close
  // the window, adopt the new partition, open a new window.

  /// Associate every worker core of `layout` with `job` and map the next
  /// published generations onto entry sequences seq0, seq0+1, ... Workers
  /// are spawned lazily; nothing is dispatched yet. The previous window on
  /// these cores must be fully complete.
  void open_window(const platform::TeamLayout& layout, PoolJob& job,
                   u64 seq0);

  /// Publish the next staged entry of the open window (the caller has
  /// filled the ring entry's fields and countdown): bump every worker dock
  /// of `layout` by one generation and wake sleepers.
  void publish_entry(const platform::TeamLayout& layout);

  /// The master's turn on entry `seq`: honor its dependency edge,
  /// participate as partition tid 0, and check into the countdown.
  void run_entry_master(const platform::TeamLayout& layout, PoolJob& job,
                        u64 seq);

  /// Spin-then-block until entry `seq` has fully completed.
  void wait_entry(PoolJob& job, u64 seq) {
    job.entry_of(seq).gate.wait(seq, spin_budget_, yield_budget_);
  }

  /// Non-blocking completion probe (ring reuse guard for publishers).
  [[nodiscard]] bool entry_complete(const PoolJob& job, u64 seq) const {
    return job.entry_of(seq).gate.complete(seq);
  }

  /// Watchdog dump section for an in-flight entry on `layout`: the
  /// scheduler's pool remainder plus the partition's dock generations
  /// (atomic / racy-by-design reads only — the construct is live when it
  /// runs). Both referents must outlive the armed watchdog entry; disarm
  /// before the flush that invalidates them.
  [[nodiscard]] rt::Watchdog::DumpFn make_watchdog_dump(
      const platform::TeamLayout& layout,
      const sched::LoopScheduler& sched, u64 seq) const;

  [[nodiscard]] const platform::Platform& platform() const {
    return platform_;
  }

  /// Worker threads spawned so far (monotonic; never exceeds num_cores).
  [[nodiscard]] int spawned_workers() const {
    return spawned_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-core dispatch mailbox. The non-atomic fields are the current
  /// *window*: the owning job, this core's partition-local tid, and the
  /// {generation, sequence} base pair mapping dock generations onto the
  /// job's entry ring. All are plain fields ordered by the release-store
  /// of `gen` (single publisher per dock — the owning master), and stable
  /// until the window is flushed.
  struct Dock {
    std::atomic<u64> gen{0};
    PoolJob* job = nullptr;
    int tid = 0;
    u64 base_gen = 0;  ///< dock generation of the window's first entry
    u64 base_seq = 0;  ///< job entry sequence of the window's first entry
  };

  struct CoreSlot {
    Padded<Dock> dock;
    rt::Throttle throttle;   // fixed per core, set at pool construction
    bool spawned = false;    // written only by the core's current owner
    std::thread worker;
  };

  void spawn(CoreSlot& slot, int core_id);
  void worker_main(CoreSlot& slot);
  void participate(const platform::TeamLayout& layout,
                   sched::LoopScheduler& sched, const rt::RangeBody& body,
                   int tid, const rt::Throttle& throttle,
                   CancelToken* token);
  u64 wait_for_dispatch(Dock& dock, u64 seen);

  platform::Platform platform_;
  Options options_;
  SteadyTimeSource clock_;
  ThreadCpuTimeSource cpu_clock_;
  const TimeSource* sf_clock_;
  std::vector<CoreSlot> slots_;  // index = platform core id
  std::atomic<bool> shutting_down_{false};
  Padded<std::atomic<u64>> epoch_;     // shared sleep channel (all workers)
  Padded<std::atomic<int>> sleepers_;  // workers blocked in epoch_.wait
  std::atomic<int> spawned_{0};
  i32 spin_budget_ = 0;
  i32 yield_budget_ = 0;
};

}  // namespace aid::pool
