// Per-shape scheduler cache: amortizing per-construct scheduler
// construction across loop executions.
//
// Every work-sharing construct needs a LoopScheduler armed for its trip
// count; building one from scratch costs ~5 small allocations (scheduler +
// per-thread records + sharded pool segments), ~0.3-0.5 µs visible in the
// fork/join bench's dispatch_first_ns on sharded configs. Data-parallel
// applications execute the same loops thousands of times, and schedulers
// are documented reusable via reset() (loop_scheduler.h) — so the runtime
// layers (rt::Team, pool::PoolManager app leases, the GOMP work-share
// ring) keep a small cache of instances keyed by *ScheduleSpec shape* and
// re-arm a cached instance instead of calling make_scheduler per
// construct. reset() re-arms everything per-execution, including the
// sharded pool's proportional split and the per-thread removal counters
// (sharded_work_share.h), so a reused instance is observably fresh.
//
// Shape key: the full ScheduleSpec (kind + chunk + AID parameters — its
// defaulted operator==). The trip count is NOT part of the key; it is
// passed to reset(). The executing layout is not part of the key either:
// a cache belongs to exactly one layout generation, and the owner calls
// invalidate() whenever that layout changes (a pool repartition) — cached
// instances bake in the old layout's thread count and shard topology, so
// they must never survive it.
//
// Up to kInstancesPerShape (= the runtime's chain-ring depth) *idle*
// instances are retained per shape: a pipelined chain can hold that many
// constructs of one shape in flight at once, and each needs its own
// instance. Busy instances are not bounded here — the generation rings
// bound them structurally.
//
// Thread safety: acquire/release/invalidate take an internal mutex (the
// GOMP surface's work-share publication races run-ahead threads against
// each other), but the critical sections are pointer shuffles — the
// actual reset()/construction runs outside the lock on the instance the
// caller now owns.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "sched/loop_scheduler.h"

namespace aid::sched {

class SchedulerCache {
 public:
  /// Idle instances retained per ScheduleSpec shape. Matches the runtime
  /// chain rings (pool::PoolJob::kChainRing, which the GOMP ring shares): a
  /// chain can keep that many same-shape constructs in flight, each
  /// needing a live instance.
  static constexpr usize kInstancesPerShape = 8;

  SchedulerCache() = default;
  SchedulerCache(const SchedulerCache&) = delete;
  SchedulerCache& operator=(const SchedulerCache&) = delete;

  /// A scheduler for `count` iterations under `spec` on `layout`: a cached
  /// idle instance of the same shape re-armed via reset(count), or a fresh
  /// make_scheduler(spec, count, layout, topo) on miss. The instance stays
  /// owned by the cache; the caller must release() it after the construct
  /// fully completed and its stats were read. The caller's layout/topo
  /// must be the ones this cache was (in)validated for.
  [[nodiscard]] LoopScheduler* acquire(const ScheduleSpec& spec, i64 count,
                                       const platform::TeamLayout& layout,
                                       const ShardTopology& topo);

  /// Return an acquired instance. It becomes reusable immediately —
  /// callers release only after the construct's completion gate closed and
  /// stats() was consumed. Instances acquired before an invalidate() are
  /// destroyed here instead of re-entering the pool.
  void release(LoopScheduler* sched);

  /// Drop every idle instance and doom the busy ones (destroyed on their
  /// release). Owners call this when the executing layout changes — a
  /// pool repartition — because cached instances bake in the old layout's
  /// thread count and shard topology.
  void invalidate();

  /// Observability (tests, bench commentary): constructs served by a
  /// re-armed instance vs. fresh constructions.
  [[nodiscard]] u64 hits() const;
  [[nodiscard]] u64 misses() const;

 private:
  struct Entry {
    ScheduleSpec spec;
    std::unique_ptr<LoopScheduler> sched;
    bool busy = false;
    u64 epoch = 0;  ///< invalidation generation the instance was built in
  };

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  u64 epoch_ = 0;
  u64 hits_ = 0;
  u64 misses_ = 0;
};

}  // namespace aid::sched
