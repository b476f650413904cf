// ShardTopology::from_layout: one home per team thread by default (at most
// kMaxShards, same-type threads sharing beyond that, never mixing types),
// AID_SHARDS=N as "at most N homes", and the single pool on uniform
// layouts. make_scheduler hands the homes to the chunk-stream schedules
// (dynamic, AID-dynamic) only; every other pool-backed schedule runs on
// one plain WorkShare.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/time_source.h"
#include "platform/platform.h"
#include "platform/team_layout.h"
#include "sched/loop_scheduler.h"
#include "sched/shard_topology.h"

namespace aid::sched {
namespace {

TEST(ShardTopology, AutoGivesEveryThreadItsOwnHome) {
  const auto p = platform::generic_amp(2, 2, 2.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  const ShardTopology topo = ShardTopology::from_layout(layout, 0);
  ASSERT_EQ(topo.nshards(), 4);
  std::set<int> homes;
  for (int tid = 0; tid < layout.nthreads(); ++tid) {
    const int h = topo.home_of(tid);
    homes.insert(h);
    // A home of one thread has that thread's speed as its capacity.
    EXPECT_DOUBLE_EQ(topo.capacity[static_cast<usize>(h)],
                     layout.speed_of(tid))
        << "tid " << tid;
  }
  EXPECT_EQ(homes.size(), 4u);
}

TEST(ShardTopology, RequestedTypeCountGivesPerTypeHomes) {
  // AID_SHARDS=2 on a two-type layout is the per-core-type pool: the
  // small type's threads share home 0, the big type's home 1.
  const auto p = platform::generic_amp(2, 2, 2.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  const ShardTopology topo = ShardTopology::from_layout(layout, 2);
  ASSERT_EQ(topo.nshards(), 2);
  for (int tid = 0; tid < layout.nthreads(); ++tid)
    EXPECT_EQ(topo.home_of(tid), layout.core_type_of(tid)) << "tid " << tid;
  EXPECT_DOUBLE_EQ(topo.capacity[0], 2.0);
  EXPECT_DOUBLE_EQ(topo.capacity[1], 4.0);
}

TEST(ShardTopology, LargeTeamSharesHomesWithinATypeOnly) {
  const auto p = platform::generic_amp(8, 8, 2.0);
  const platform::TeamLayout layout(p, 16, platform::Mapping::kBigFirst);
  const ShardTopology topo = ShardTopology::from_layout(layout, 0);
  ASSERT_LE(topo.nshards(), ShardTopology::kMaxShards);
  ASSERT_EQ(topo.nshards(), ShardTopology::kMaxShards);
  std::vector<int> type_of_home(static_cast<usize>(topo.nshards()), -1);
  std::vector<int> members(static_cast<usize>(topo.nshards()), 0);
  for (int tid = 0; tid < layout.nthreads(); ++tid) {
    const usize h = static_cast<usize>(topo.home_of(tid));
    ASSERT_LT(h, type_of_home.size());
    if (type_of_home[h] < 0) type_of_home[h] = layout.core_type_of(tid);
    EXPECT_EQ(type_of_home[h], layout.core_type_of(tid))
        << "home " << h << " mixes core types";
    ++members[h];
  }
  // Eight threads per type over four homes each: two members per home.
  for (const int m : members) EXPECT_EQ(m, 2);
}

TEST(ShardTopology, UniformLayoutKeepsTheSinglePool) {
  const auto p = platform::symmetric(4);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  EXPECT_EQ(ShardTopology::from_layout(layout, 0).nshards(), 1);
  EXPECT_EQ(ShardTopology::from_layout(layout, 4).nshards(), 1);
}

TEST(ShardTopology, RequestedOneIsTheSinglePool) {
  const auto p = platform::generic_amp(2, 2, 2.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  EXPECT_EQ(ShardTopology::from_layout(layout, 1).nshards(), 1);
}

TEST(ShardTopology, RequestedBetweenTypesAndThreadsCapsHomes) {
  // At most 3 homes on 2 small + 2 big: each type keeps its own home, the
  // spare one splits a type; no home mixes types.
  const auto p = platform::generic_amp(2, 2, 2.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  const ShardTopology topo = ShardTopology::from_layout(layout, 3);
  ASSERT_EQ(topo.nshards(), 3);
  std::vector<int> type_of_home(3, -1);
  for (int tid = 0; tid < layout.nthreads(); ++tid) {
    const usize h = static_cast<usize>(topo.home_of(tid));
    if (type_of_home[h] < 0) type_of_home[h] = layout.core_type_of(tid);
    EXPECT_EQ(type_of_home[h], layout.core_type_of(tid)) << "tid " << tid;
  }
}

TEST(ShardTopology, OnlyChunkStreamSchedulesOnPerThreadHomes) {
  const auto p = platform::generic_amp(4, 4, 2.0);
  const platform::TeamLayout layout(p, 8, platform::Mapping::kBigFirst);
  const ShardTopology topo = ShardTopology::from_layout(layout, 0);
  ASSERT_EQ(topo.nshards(), 8);
  for (const ScheduleSpec& spec :
       {ScheduleSpec::dynamic(4), ScheduleSpec::aid_dynamic(1, 5)}) {
    const auto sched = make_scheduler(spec, 1000, layout, topo);
    std::set<int> homes;
    for (int tid = 0; tid < layout.nthreads(); ++tid)
      homes.insert(sched->home_shard_of(tid));
    EXPECT_EQ(homes.size(), 8u) << sched->name();
  }
  for (const ScheduleSpec& spec :
       {ScheduleSpec::guided(1), ScheduleSpec::aid_static(4),
        ScheduleSpec::aid_hybrid(4), ScheduleSpec::trapezoid(),
        ScheduleSpec::weighted_factoring()}) {
    const auto sched = make_scheduler(spec, 1000, layout, topo);
    for (int tid = 0; tid < layout.nthreads(); ++tid)
      EXPECT_EQ(sched->home_shard_of(tid), 0)
          << sched->name() << " tid " << tid;
  }
}

/// Serial round-robin drain: every tid takes one range in turn until each
/// has seen the pool empty. Returns the removal count.
i64 drain_round_robin(LoopScheduler& sched,
                      const platform::TeamLayout& layout) {
  const ManualTimeSource clock;
  std::vector<ThreadContext> tcs(static_cast<usize>(layout.nthreads()));
  for (int tid = 0; tid < layout.nthreads(); ++tid) {
    ThreadContext& tc = tcs[static_cast<usize>(tid)];
    tc.tid = tid;
    tc.core_type = layout.core_type_of(tid);
    tc.speed = layout.speed_of(tid);
    tc.shard = sched.home_shard_of(tid);
    tc.time = &clock;
  }
  std::vector<bool> done(tcs.size(), false);
  for (usize live = tcs.size(); live > 0;) {
    for (usize t = 0; t < tcs.size(); ++t) {
      IterRange r;
      if (!done[t] && !sched.next(tcs[t], r)) {
        done[t] = true;
        --live;
      }
    }
  }
  return sched.stats().pool_removals;
}

TEST(ShardTopology, AdaptiveRemovalsStayNearTheSinglePoolOnAmp) {
  // The variable-size schedules must not pay a sharding tax when the
  // runtime hands make_scheduler a topology. On homes, guided and weighted
  // factoring would size a take from the home's remainder (~1/P of the
  // space), and home seams would clamp the big trapezoid, AID-static and
  // AID-hybrid takes short: on one home per core type this drain took
  // 1704 trapezoid removals against 31 on the single pool, and 4192
  // AID-static removals against 23.
  const auto p = platform::generic_amp(4, 4, 2.0);
  const platform::TeamLayout layout(p, 8, platform::Mapping::kBigFirst);
  constexpr i64 kCount = 100000;
  for (const ScheduleSpec& spec :
       {ScheduleSpec::guided(1), ScheduleSpec::weighted_factoring(),
        ScheduleSpec::trapezoid(), ScheduleSpec::aid_static(1),
        ScheduleSpec::aid_hybrid(1)}) {
    const auto single = make_scheduler(spec, kCount, layout);
    const auto sharded = make_scheduler(spec, kCount, layout,
                                        ShardTopology::from_layout(layout, 0));
    const i64 base = drain_round_robin(*single, layout);
    EXPECT_LE(drain_round_robin(*sharded, layout), 2 * base)
        << sharded->name() << ": single-pool removals " << base;
  }
}

}  // namespace
}  // namespace aid::sched
