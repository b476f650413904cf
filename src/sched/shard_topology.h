// Home layout for the sharded iteration pool.
//
// A ShardTopology maps every team thread to a *home shard* — the pool
// partition whose segment words only that home's members write on the
// fast path (see sched/sharded_work_share.h and src/sched/README.md).
// By default every team thread gets a home of its own, with a capacity
// equal to its nominal speed: the common-case removal is then a
// core-local RMW, and cross-core traffic happens per steal or per bulk
// migration (the Catalán et al. / Krishna & Balachandran partitioning
// argument, PAPERS.md). At most kMaxShards homes exist; on larger teams
// same-type threads share homes (contiguous tid blocks, spread evenly),
// and a home never mixes core types. A layout with one populated core
// type keeps the classic single pool.
//
// make_scheduler gives these homes to the chunk-stream schedules (dynamic,
// AID-dynamic), whose thousands of fixed-grain takes are what core-local
// removals pay for; every other pool-backed schedule runs on one plain
// WorkShare whatever the topology (src/sched/README.md, "Shard layout").
//
// The topology is *mechanism description*, not policy: it is computed once
// per construct from the layout that will execute it, which is what keeps
// home membership coherent across pool repartitions — a partition change
// commits between ring entries (pool/pool_manager.cc), and every entry's
// scheduler is built from the layout current at publish time.
//
// AID_SHARDS environment override (read by from_layout()) — "at most N
// homes":
//   unset / 0  — auto: one home per thread (up to kMaxShards);
//   1          — single-shard fallback: bit-for-bit the classic WorkShare
//                path (the symmetric-layout / regression-proof mode);
//   N > 1      — at most N homes, shared by same-type threads. N equal to
//                the number of populated core types is one home per core
//                type; below that, the excess types merge into the last
//                home.
#pragma once

#include <vector>

#include "common/types.h"
#include "platform/team_layout.h"

namespace aid::sched {

struct ShardTopology {
  /// Upper bound on homes: the pool keeps per-home snapshots on the stack
  /// (ShardedWorkShare::rebalance) and scans every home when its own
  /// drains. Both of the paper's 4+4 platforms get one home per thread.
  static constexpr int kMaxShards = 8;

  /// tid -> home shard id. Empty means "single shard" (the default for
  /// every caller that does not opt into sharding, e.g. the simulator).
  std::vector<int> home_of_tid;
  /// shard -> nominal capacity (sum of member threads' nominal speeds);
  /// the initial iteration split is proportional to this.
  std::vector<double> capacity;

  [[nodiscard]] int nshards() const {
    return capacity.empty() ? 1 : static_cast<int>(capacity.size());
  }

  [[nodiscard]] int home_of(int tid) const {
    if (home_of_tid.empty()) return 0;
    return tid >= 0 && static_cast<usize>(tid) < home_of_tid.size()
               ? home_of_tid[static_cast<usize>(tid)]
               : 0;
  }

  /// One shard holding every thread — the classic single-pool behavior.
  [[nodiscard]] static ShardTopology single(int nthreads);

  /// One home per thread of `layout` (see file comment), honoring the
  /// AID_SHARDS environment override.
  [[nodiscard]] static ShardTopology from_layout(
      const platform::TeamLayout& layout);

  /// At most `requested_shards` homes (<=0 means auto: kMaxShards).
  [[nodiscard]] static ShardTopology from_layout(
      const platform::TeamLayout& layout, int requested_shards);
};

}  // namespace aid::sched
