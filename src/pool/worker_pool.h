// The dispatch engine: one lazily-spawned persistent worker per platform
// core, dispatchable per *partition*.
//
// Every fork/join construct in libaid runs here. rt::Team is one fixed
// partition of a private WorkerPool; the PoolManager leases partitions of
// the process-wide one. A caller runs a loop on any subset of cores (a
// TeamLayout built over an explicit core list); two masters holding
// disjoint partitions dispatch concurrently without sharing any
// synchronization beyond the sleep epoch.
//
// Dispatch is a generation dock per core plus a per-job ring of in-flight
// entries: each PoolJob carries kChainRing entry slots `{scheduler lease,
// body, dependency, completion gate, cancel token, watchdog id}` keyed by
// a monotone entry sequence number, and each core dock maps its
// generations onto those sequences through a *window* base pair
// {base_gen, base_seq}. Publishing an entry to a partition bumps every
// member dock by one generation; a worker that observes its dock at
// generation g executes every entry in (last-seen, g] in order. That is
// what lets a chain of loops flow with nowait semantics: the master
// publishes loop k+1 while stragglers still drain loop k, and only
// explicit dependency edges (entry.dep_seq) gate entry.
//
// A window never spans a partition change: its owner flushes every
// published entry before reopening it on other cores (a PoolManager
// repartition). A Team's partition never moves, so it opens its window
// once. Repartitioning needs no thread teardown — a revoked core simply
// stops having windows opened on its dock and its worker parks on the
// shared epoch futex.
//
// The calling thread (the master) participates as partition tid 0 on
// layout.core_of(0). run_loop on a single-core partition runs serially
// with zero dispatches.
//
// Ownership contract (enforced by the callers, assumed here): at any
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
#include "sched/scheduler_cache.h"
#include "sched/shard_topology.h"

namespace aid::pipeline {
class LoopChain;
}  // namespace aid::pipeline

namespace aid::pool {

/// One master's in-flight dispatch state: a ring of chain entries keyed by
/// a monotone sequence number (a plain run_loop is a chain of one). The
/// owner must keep it alive until the pool's workers are joined (workers
/// touch an entry's completion words briefly after the master's final wait
/// returns; the PoolManager parks retired jobs instead of freeing them).
struct PoolJob {
  /// In-flight constructs the entry ring can hold before the publisher
  /// must wait for the oldest to drain.
  static constexpr u64 kChainRing = 8;

  /// One in-flight construct. The plain fields are written by the staging
  /// master and ordered by the owning dock generations' release-stores;
  /// completion is the gate protocol (common/completion_gate.h) keyed by
  /// the monotone entry sequence.
  struct Entry {
    /// The construct's scheduler: a cache lease, returned once the entry
    /// completed (a chain returns it when the slot is reused or at the
    /// chain end).
    sched::LoopScheduler* sched = nullptr;
    const rt::RangeBody* body = nullptr;
    u64 dep_seq = 0;  ///< entry sequence that must complete first (0 = none)
    u64 watchdog_id = 0;  ///< armed deadline (0 = none)
    CompletionGate gate;
    /// The occupant's cancellation token: reset + re-bound by stage()
    /// (ring reuse guard already held), read at every chunk take,
    /// harvested before the slot is reused or the construct returns.
    CancelToken token;
  };

  /// Next entry sequence to publish (master-only; monotone for the job's
  /// lifetime, so `completed` never goes backwards across apps recycling
  /// the job). Sequence 0 is reserved as "no dependency".
  u64 next_seq = 1;
  std::array<Entry, kChainRing> ring;

  [[nodiscard]] Entry& entry_of(u64 seq) { return ring[seq % kChainRing]; }

  /// Fill the next entry — scheduler, body, dependency, token parents, a
  /// countdown over `participants` — and return its sequence. The slot's
  /// previous occupant must be complete (the caller's ring reuse guard).
  u64 stage(int participants, sched::LoopScheduler* sched,
            const rt::RangeBody* body, u64 dep_seq,
            const CancelToken* parent_a, const CancelToken* parent_b);
};

// The cache retains this many idle instances per shape precisely so a
// chain can hold a full ring of same-shape constructs in flight; a ring
// deepened past the retention cap would silently reintroduce steady-state
// construction misses (and break the cache-determinism tests).
static_assert(PoolJob::kChainRing <= sched::SchedulerCache::kInstancesPerShape,
              "chain-ring depth exceeds SchedulerCache per-shape retention");

class WorkerPool {
 public:
  struct Options {
    bool emulate_amp = true;   ///< throttle small cores on symmetric hosts
    bool bind_threads = false; ///< best-effort per-core affinity
    bool sf_cpu_time = false;  ///< schedulers sample per-thread CPU time
  };

  /// What a construct runs on: the partition, its shard topology, and the
  /// cache its scheduler leases are drawn from.
  struct Target {
    const platform::TeamLayout* layout = nullptr;
    const sched::ShardTopology* topo = nullptr;
    sched::SchedulerCache* cache = nullptr;
  };

  /// A caller's hook between chain entries (the PoolManager's repartition
  /// commit). run_chain polls pending() before each publish; once it
  /// reports true, publishing stops, the master finishes its shares, every
  /// published entry is flushed and harvested, and commit() may move
  /// `target` to a new partition, on which the chain continues.
  class ChainBoundary {
   public:
    virtual bool pending() = 0;
    virtual void commit(Target& target) = 0;

   protected:
    ~ChainBoundary() = default;
  };

  struct Result {
    std::exception_ptr error;     ///< first exception of any entry
    sched::SchedulerStats stats;  ///< the (final) entry's stats
  };

  /// `max_partition` is the widest partition this pool will dispatch; it
  /// sizes the default spin/yield budgets (common/spin_wait.h), which
  /// AID_FORKJOIN_SPIN / AID_FORKJOIN_YIELD override.
  WorkerPool(const platform::Platform& platform, Options options,
             int max_partition);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Associate every worker core of `layout` with `job` and map the next
  /// published generations onto entry sequences seq0, seq0+1, ...; binds
  /// the calling master to layout.core_of(0) when binding is on, and
  /// spawns the worker of a core on its first window. Nothing is
  /// dispatched yet. Every entry previously published on these cores
  /// must be complete. The window stays valid for as long as every entry
  /// of `job` is published on `layout`.
  void open_window(const platform::TeamLayout& layout, PoolJob& job,
                   u64 seq0);

  /// Execute `count` canonical iterations of `body` under `spec` on
  /// target.layout, whose window for `job` is open, with a scheduler
  /// leased from target.cache for the construct. The calling thread
  /// participates as tid 0; tids 1.. are dispatched to the workers owning
  /// those cores. Blocks until the partition's implicit barrier completes.
  ///
  /// Failure domain: the construct's token binds spec.cancel and
  /// `lease_cancel`; spec.deadline_ns arms `watchdog` for the construct;
  /// a throwing body is captured and RETURNED (never thrown), after the
  /// scheduler lease went back to the cache.
  [[nodiscard]] Result run_loop(Target target, i64 count,
                                const sched::ScheduleSpec& spec,
                                const rt::RangeBody& body, PoolJob& job,
                                const CancelToken* lease_cancel,
                                rt::Watchdog& watchdog);

  /// Execute a non-empty chain with nowait semantics on target.layout,
  /// whose window for `job` is open: entry k runs as sequence
  /// job.next_seq + k, with a scheduler leased from target.cache. The
  /// master publishes while ring slots are free and otherwise runs its own
  /// shares in chain order; it blocks only when the ring is full of
  /// entries it already served, and at the chain-end flush. Entry tokens
  /// bind the loop's spec token and `lease_cancel`; deadlines arm
  /// `watchdog`. `boundary` (nullable) may move the partition between
  /// entries. Errors are returned, never thrown.
  [[nodiscard]] Result run_chain(const pipeline::LoopChain& chain,
                                 PoolJob& job, Target target,
                                 const CancelToken* lease_cancel,
                                 rt::Watchdog& watchdog,
                                 ChainBoundary* boundary = nullptr);

  /// Worker threads spawned so far (monotonic; never exceeds num_cores).
  [[nodiscard]] int spawned_workers() const {
    return spawned_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-core dispatch mailbox. The non-atomic fields are the current
  /// *window*: the owning job and partition, this core's partition-local
  /// tid, and the {generation, sequence} base pair mapping dock
  /// generations onto the job's entry ring. All are plain fields ordered by the release-store
  /// of `gen` (single publisher per dock — the owning master), and stable
  /// until the window is flushed.
  struct Dock {
    std::atomic<u64> gen{0};
    PoolJob* job = nullptr;
    const platform::TeamLayout* layout = nullptr;
    int tid = 0;
    u64 base_gen = 0;  ///< dock generation of the window's first entry
    u64 base_seq = 0;  ///< job entry sequence of the window's first entry
  };

  struct CoreSlot {
    Padded<Dock> dock;
    rt::Throttle throttle;  // fixed per core, set at pool construction
    std::thread worker;     // started by the core's first window
  };

  void spawn(CoreSlot& slot, int core_id);
  void worker_main(CoreSlot& slot);
  u64 wait_for_dispatch(Dock& dock, u64 seen);
  /// One member's turn on entry `seq` of the open window (master: tid 0):
  /// honor its dependency edge, run its chunks, check into the countdown.
  void run_entry(PoolJob& job, const platform::TeamLayout& layout, u64 seq,
                 int tid, const rt::Throttle& throttle);
  [[nodiscard]] const rt::Throttle& master_throttle(
      const platform::TeamLayout& layout) const {
    return slots_[static_cast<usize>(layout.core_of(0))].throttle;
  }

  /// Bump every worker dock of `layout` by one generation (publishing the
  /// staged entry) and wake sleepers.
  void publish_entry(const platform::TeamLayout& layout);
  /// Spin-then-block until entry `seq` has fully completed.
  void wait_entry(PoolJob& job, u64 seq) {
    job.entry_of(seq).gate.wait(seq, spin_budget_, yield_budget_);
  }
  /// Arm the deadline of published entry `seq` when `deadline_ns` asks for
  /// one. The watchdog dump quotes the scheduler's remainder and the
  /// partition's dock generations (atomic / racy-by-design reads only).
  void arm_deadline(rt::Watchdog& watchdog, i64 deadline_ns,
                    const platform::TeamLayout& layout, PoolJob& job,
                    u64 seq, const char* label);
  /// Disarm a completed entry's deadline and return its captured error.
  static std::exception_ptr harvest(rt::Watchdog& watchdog,
                                    PoolJob::Entry& entry);

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
