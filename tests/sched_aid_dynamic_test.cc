// AidDynamicScheduler: Fig. 5 state machine — sampling, repeated AID phases
// with the R progress ratio, the smoothing update, and the endgame
// optimization.
#include <gtest/gtest.h>

#include <vector>

#include "common/time_source.h"
#include "sched/aid_dynamic_sched.h"
#include "sched/shard_topology.h"
#include "test_util.h"

namespace aid::sched {
namespace {

using test::amp_2s2b;
using test::drive;
using test::total_of;

TEST(AidDynamic, CoversAllIterations) {
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  for (i64 count : {0, 1, 7, 100, 1000, 4096}) {
    const auto r = drive(ScheduleSpec::aid_dynamic(1, 5), count, layout,
                         *test::uniform_cost(500, 3.0));
    EXPECT_EQ(r.sim.total_iterations(), count) << "count=" << count;
  }
}

TEST(AidDynamic, FewerRemovalsThanDynamic) {
  // The design goal (Sec. 4.2): reduce pool removals by letting big-core
  // threads take R*M at once.
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  const auto cost = test::uniform_cost(1000, 3.0);
  const auto aid = drive(ScheduleSpec::aid_dynamic(1, 10), 8000, layout, *cost);
  const auto dyn = drive(ScheduleSpec::dynamic(1), 8000, layout, *cost);
  EXPECT_LT(aid.sim.pool_removals, dyn.sim.pool_removals / 3);
}

TEST(AidDynamic, ProgressRatioConvergesToSpeedRatio) {
  const auto p = amp_2s2b(4.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  auto sched = make_scheduler(ScheduleSpec::aid_dynamic(1, 8), 20000, layout);
  sim::LoopSimulator simulator(layout, sim::OverheadModel::zero());
  (void)simulator.run(*sched, 20000, *test::uniform_cost(1000, 4.0));
  auto* aid = dynamic_cast<AidDynamicScheduler*>(sched.get());
  ASSERT_NE(aid, nullptr);
  const auto ratios = aid->progress_ratios();
  ASSERT_EQ(ratios.size(), 2u);
  EXPECT_NEAR(ratios[1], 4.0, 0.5);
}

TEST(AidDynamic, RunsMultiplePhases) {
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  const auto r = drive(ScheduleSpec::aid_dynamic(1, 5), 4000, layout,
                       *test::uniform_cost(1000, 3.0));
  EXPECT_GT(r.sim.aid_phases, 3);
}

TEST(AidDynamic, EndgameSwitchesToMinorChunks) {
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  auto sched = make_scheduler(ScheduleSpec::aid_dynamic(1, 5), 500, layout);
  sim::LoopSimulator simulator(layout, sim::OverheadModel::zero());
  (void)simulator.run(*sched, 500, *test::uniform_cost(1000, 3.0));
  auto* aid = dynamic_cast<AidDynamicScheduler*>(sched.get());
  ASSERT_NE(aid, nullptr);
  EXPECT_TRUE(aid->in_endgame())
      << "a 500-iteration loop must reach the M*(NB+NS) endgame";
}

TEST(AidDynamic, BalancesUnevenWork) {
  // Lognormal-style unevenness via an affine ramp: AID-dynamic must stay
  // close to dynamic's balance (its raison d'etre is matching dynamic with
  // less overhead).
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  auto cost = std::make_shared<sim::AffineCostModel>(
      400.0, 0.3, 8000, std::vector<double>{1.0, 3.0});
  const auto aid = drive(ScheduleSpec::aid_dynamic(1, 5), 8000, layout, *cost);
  const auto dyn = drive(ScheduleSpec::dynamic(1), 8000, layout, *cost);
  EXPECT_LT(static_cast<double>(aid.sim.completion_ns),
            static_cast<double>(dyn.sim.completion_ns) * 1.10);
}

TEST(AidDynamic, LessChunkSensitiveThanDynamic) {
  // Fig. 8: large chunks wreck dynamic (end-of-loop imbalance) but barely
  // hurt AID-dynamic thanks to the endgame switch.
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  const auto cost = test::uniform_cost(1000, 3.0);
  const i64 count = 4000;

  const auto dyn_small = drive(ScheduleSpec::dynamic(1), count, layout, *cost);
  const auto dyn_big = drive(ScheduleSpec::dynamic(30), count, layout, *cost);
  const auto aid_small =
      drive(ScheduleSpec::aid_dynamic(1, 5), count, layout, *cost);
  const auto aid_big =
      drive(ScheduleSpec::aid_dynamic(1, 30), count, layout, *cost);

  const double dyn_penalty = static_cast<double>(dyn_big.sim.completion_ns) /
                             static_cast<double>(dyn_small.sim.completion_ns);
  const double aid_penalty = static_cast<double>(aid_big.sim.completion_ns) /
                             static_cast<double>(aid_small.sim.completion_ns);
  EXPECT_LT(aid_penalty, dyn_penalty);
  EXPECT_LT(aid_penalty, 1.10) << "AID-dynamic should absorb big M";
}

TEST(AidDynamic, UniformTeamStillWorks) {
  const auto p = platform::symmetric(4);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kSmallFirst);
  const auto r = drive(ScheduleSpec::aid_dynamic(2, 6), 1000, layout,
                       *std::make_shared<sim::UniformCostModel>(
                           500.0, std::vector<double>{1.0}));
  EXPECT_EQ(r.sim.total_iterations(), 1000);
  for (int tid = 0; tid < 4; ++tid)
    EXPECT_NEAR(static_cast<double>(total_of(r, tid)), 250.0, 60.0);
}

TEST(AidDynamic, SingleThread) {
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 1, platform::Mapping::kBigFirst);
  const auto r = drive(ScheduleSpec::aid_dynamic(1, 5), 64, layout,
                       *test::uniform_cost(100, 3.0));
  EXPECT_EQ(total_of(r, 0), 64);
}

TEST(AidDynamic, MajorChunkMustDominateMinor) {
  EXPECT_FALSE(parse_schedule("aid-dynamic,10,5").has_value());
  EXPECT_TRUE(parse_schedule("aid-dynamic,5,10").has_value());
}

TEST(AidDynamic, ResetReplaysIdentically) {
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  auto sched = make_scheduler(ScheduleSpec::aid_dynamic(1, 5), 2000, layout);
  sim::LoopSimulator simulator(layout, sim::OverheadModel::zero());
  const auto cost = test::uniform_cost(800, 3.0);
  const auto r1 = simulator.run(*sched, 2000, *cost);
  sched->reset(2000);
  const auto r2 = simulator.run(*sched, 2000, *cost);
  EXPECT_EQ(r1.completion_ns, r2.completion_ns);
  EXPECT_EQ(r1.iterations, r2.iterations);
}

// The endgame is decided by the phase closer, on the remainder it sees:
// in_endgame() turns true at the first close that leaves at most
// M·nthreads iterations and never earlier. Driven single-threaded, round
// robin, so the remainder just before the closing next() call is exactly
// the closer's snapshot.
TEST(AidDynamic, EndgameStartsAtTheQualifyingPhaseClose) {
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  constexpr i64 kMajor = 5;
  const i64 threshold = kMajor * layout.nthreads();
  for (const int shards : {1, 0}) {  // single pool / one home per thread
    const ShardTopology topo = ShardTopology::from_layout(layout, shards);
    auto sched = make_scheduler(ScheduleSpec::aid_dynamic(1, kMajor), 400,
                                layout, topo);
    auto* aid = dynamic_cast<AidDynamicScheduler*>(sched.get());
    ASSERT_NE(aid, nullptr);
    ManualTimeSource clock;
    std::vector<ThreadContext> tcs(static_cast<usize>(layout.nthreads()));
    for (int tid = 0; tid < layout.nthreads(); ++tid) {
      ThreadContext& tc = tcs[static_cast<usize>(tid)];
      tc.tid = tid;
      tc.core_type = layout.core_type_of(tid);
      tc.speed = layout.speed_of(tid);
      tc.shard = sched->home_shard_of(tid);
      tc.time = &clock;
    }
    std::vector<bool> done(tcs.size(), false);
    i64 closes = 0;
    i64 delivered = 0;
    bool qualifying_close_seen = false;
    for (usize live = tcs.size(); live > 0;) {
      for (usize t = 0; t < tcs.size(); ++t) {
        if (done[t]) continue;
        const i64 before = sched->remaining();
        const bool was_endgame = aid->in_endgame();
        clock.advance(tcs[t].core_type == 0 ? 30 : 10);
        IterRange r;
        const bool got = sched->next(tcs[t], r);
        const i64 now_closes = sched->stats().aid_phases;
        if (now_closes != closes) {
          ASSERT_EQ(now_closes, closes + 1);
          closes = now_closes;
          if (!was_endgame) {
            EXPECT_EQ(aid->in_endgame(), before <= threshold)
                << "shards=" << shards << " close " << closes
                << " remaining " << before;
            qualifying_close_seen |= before <= threshold;
          }
        } else {
          EXPECT_EQ(aid->in_endgame(), was_endgame)
              << "the endgame flipped outside a phase close";
        }
        if (got) {
          delivered += r.size();
        } else {
          done[t] = true;
          --live;
        }
      }
    }
    EXPECT_EQ(delivered, 400);
    EXPECT_GT(closes, 3);
    EXPECT_TRUE(qualifying_close_seen) << "shards=" << shards;
    EXPECT_TRUE(aid->in_endgame()) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace aid::sched
