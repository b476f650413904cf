#include "sched/shard_topology.h"

#include <algorithm>

#include "common/check.h"
#include "common/env.h"

namespace aid::sched {

ShardTopology ShardTopology::single(int nthreads) {
  ShardTopology topo;
  topo.home_of_tid.assign(static_cast<usize>(nthreads > 0 ? nthreads : 1), 0);
  topo.capacity.assign(1, static_cast<double>(nthreads > 0 ? nthreads : 1));
  return topo;
}

ShardTopology ShardTopology::from_layout(const platform::TeamLayout& layout) {
  return from_layout(
      layout, static_cast<int>(env::get_int_at_least("AID_SHARDS", 0, 0)));
}

ShardTopology ShardTopology::from_layout(const platform::TeamLayout& layout,
                                         int requested_shards) {
  // Homes serve *populated* core types only: a type no team thread sits on
  // must not own iterations (nobody would drain them without stealing).
  const int ntypes = layout.num_core_types();
  std::vector<int> nhomes(static_cast<usize>(ntypes), 0);
  int populated = 0;
  for (int t = 0; t < ntypes; ++t) {
    if (layout.threads_of_type(t) > 0) {
      nhomes[static_cast<usize>(t)] = 1;
      ++populated;
    }
  }
  AID_CHECK(populated > 0);
  int cap = requested_shards <= 0 ? kMaxShards : requested_shards;
  cap = std::min({cap, kMaxShards, layout.nthreads()});
  // One home == the classic single pool: return the empty topology so
  // nothing is allocated here or copied per construct (uniform layouts
  // and AID_SHARDS=1 arm thousands of loops through this path).
  if (populated < 2 || cap < 2) return {};

  // Spare homes go one at a time to the type with the most threads per
  // home, so members spread evenly and no type gets more homes than
  // threads.
  for (int spare = cap - populated; spare > 0; --spare) {
    int best = -1;
    double best_load = 1.0;
    for (int t = 0; t < ntypes; ++t) {
      if (nhomes[static_cast<usize>(t)] == 0) continue;
      const double load = static_cast<double>(layout.threads_of_type(t)) /
                          nhomes[static_cast<usize>(t)];
      if (load > best_load) {
        best_load = load;
        best = t;
      }
    }
    if (best < 0) break;  // every thread already has its own home
    ++nhomes[static_cast<usize>(best)];
  }

  // Homes are numbered type by type, slowest type first, so the initial
  // contiguous split keeps the per-type order of the canonical space.
  // With a cap below the populated type count, the excess types merge
  // into the last home (the only case where a home mixes types).
  std::vector<int> first_home(static_cast<usize>(ntypes), 0);
  int nshards = 0;
  for (int t = 0; t < ntypes; ++t) {
    first_home[static_cast<usize>(t)] = std::min(nshards, cap - 1);
    nshards = std::min(nshards + nhomes[static_cast<usize>(t)], cap);
  }

  ShardTopology topo;
  topo.capacity.assign(static_cast<usize>(nshards), 0.0);
  topo.home_of_tid.resize(static_cast<usize>(layout.nthreads()));
  std::vector<int> rank(static_cast<usize>(ntypes), 0);
  for (int tid = 0; tid < layout.nthreads(); ++tid) {
    const int t = layout.core_type_of(tid);
    const usize ut = static_cast<usize>(t);
    // Contiguous blocks of same-type tids share a home.
    const int h = first_home[ut] +
                  rank[ut]++ * nhomes[ut] / layout.threads_of_type(t);
    topo.home_of_tid[static_cast<usize>(tid)] = h;
    topo.capacity[static_cast<usize>(h)] += layout.speed_of(tid);
  }
  return topo;
}

}  // namespace aid::sched
