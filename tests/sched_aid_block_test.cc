// AidBlockScheduler (AID-static / AID-hybrid): Fig. 3 state machine,
// sampling-based SF estimation and the proportional distribution math.
#include <gtest/gtest.h>

#include <cmath>

#include "sched/aid_block_sched.h"
#include "test_util.h"

namespace aid::sched {
namespace {

using test::amp_2s2b;
using test::amp_4s4b;
using test::drive;
using test::total_of;

TEST(AidK, MatchesPaperFormula) {
  // k = NI / (NB*SF + NS): 1000 iterations, 2 big @ SF 3, 2 small.
  EXPECT_DOUBLE_EQ(aid_k(1000, {2, 2}, {1.0, 3.0}), 1000.0 / 8.0);
  // Generalized three-type form: k = NI / sum N_t * SF_t.
  EXPECT_DOUBLE_EQ(aid_k(900, {2, 2, 2}, {1.0, 2.0, 6.0}), 900.0 / 18.0);
  EXPECT_DOUBLE_EQ(aid_k(100, {0, 0}, {1.0, 2.0}), 0.0);
}

TEST(AidStatic, DistributionProportionalToSpeed) {
  // Uniform iterations, big cores 3x: small threads should end up with
  // ~k = NI/(NB*SF+NS) = 1200/8 = 150, big with ~450 each.
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  const auto r = drive(ScheduleSpec::aid_static(1), 1200, layout,
                       *test::uniform_cost(1000, 3.0));
  // BS: tids 0,1 big; 2,3 small.
  for (int tid : {0, 1})
    EXPECT_NEAR(static_cast<double>(total_of(r, tid)), 450.0, 25.0) << tid;
  for (int tid : {2, 3})
    EXPECT_NEAR(static_cast<double>(total_of(r, tid)), 150.0, 25.0) << tid;
  EXPECT_EQ(r.sim.total_iterations(), 1200);
}

TEST(AidStatic, EstimatedSfMatchesTrueRatio) {
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  const auto r = drive(ScheduleSpec::aid_static(1), 2000, layout,
                       *test::uniform_cost(1000, 3.0));
  EXPECT_NEAR(r.sim.estimated_sf, 3.0, 0.05);
}

TEST(AidStatic, NearPerfectBalanceOnUniformLoop) {
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  const auto r = drive(ScheduleSpec::aid_static(1), 1600, layout,
                       *test::uniform_cost(1000, 3.0));
  // Ideal completion: 1600 * 1000 / (2*3 + 2) = 200us. Sampling plus
  // rounding may add a few iterations of slack.
  EXPECT_LT(r.sim.completion_ns, 210'000);
}

TEST(AidStatic, BeatsStaticOnAmp) {
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  const auto cost = test::uniform_cost(1000, 3.0);
  const auto aid = drive(ScheduleSpec::aid_static(1), 1600, layout, *cost);
  const auto st = drive(ScheduleSpec::static_even(), 1600, layout, *cost);
  // static: bounded by small cores executing 400 iterations = 400us.
  EXPECT_GT(st.sim.completion_ns, aid.sim.completion_ns * 17 / 10);
}

TEST(AidStatic, SamplingUsesConfiguredChunk) {
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  const auto r = drive(ScheduleSpec::aid_static(8), 1600, layout,
                       *test::uniform_cost(1000, 3.0));
  // Every thread's first range is the sampling chunk of 8.
  for (int tid = 0; tid < 4; ++tid) {
    ASSERT_FALSE(r.ranges[static_cast<usize>(tid)].empty());
    EXPECT_EQ(r.ranges[static_cast<usize>(tid)][0].size(), 8);
  }
}

TEST(AidStatic, FewPoolRemovals) {
  // The design goal: "by reducing the number of runtime API calls"
  // (Sec. 4.2). Expect O(nthreads), not O(NI).
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  const auto aid = drive(ScheduleSpec::aid_static(1), 4000, layout,
                         *test::uniform_cost(1000, 3.0));
  const auto dyn = drive(ScheduleSpec::dynamic(1), 4000, layout,
                         *test::uniform_cost(1000, 3.0));
  EXPECT_LT(aid.sim.pool_removals, 40);
  EXPECT_GT(dyn.sim.pool_removals, 3900);
}

TEST(AidStatic, UniformTeamDegeneratesToEvenSplit) {
  const auto p = platform::symmetric(4);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kSmallFirst);
  const auto r = drive(ScheduleSpec::aid_static(1), 400, layout,
                       *std::make_shared<sim::UniformCostModel>(
                           1000.0, std::vector<double>{1.0}));
  for (int tid = 0; tid < 4; ++tid)
    EXPECT_NEAR(static_cast<double>(total_of(r, tid)), 100.0, 6.0);
}

TEST(AidStatic, TinyLoopStillCoversAllIterations) {
  // Loop smaller than the team's sampling demand.
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  for (i64 count : {0, 1, 2, 3, 5}) {
    const auto r = drive(ScheduleSpec::aid_static(2), count, layout,
                         *test::uniform_cost(1000, 3.0));
    EXPECT_EQ(r.sim.total_iterations(), count);
  }
}

TEST(AidStatic, SingleThreadGetsEverything) {
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 1, platform::Mapping::kBigFirst);
  const auto r = drive(ScheduleSpec::aid_static(1), 100, layout,
                       *test::uniform_cost(1000, 3.0));
  EXPECT_EQ(total_of(r, 0), 100);
}

TEST(AidStatic, OfflineSfSkipsSampling) {
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  const auto r = drive(ScheduleSpec::aid_static_offline(3.0), 1200, layout,
                       *test::uniform_cost(1000, 3.0));
  // With the exact SF supplied, each thread receives one single block:
  // 4 removals plus up to 4 empty probes, no sampling chunks.
  EXPECT_LE(r.sim.pool_removals, 8);
  for (int tid : {0, 1}) EXPECT_NEAR(static_cast<double>(total_of(r, tid)), 450, 3);
  for (int tid : {2, 3}) EXPECT_NEAR(static_cast<double>(total_of(r, tid)), 150, 3);
}

TEST(AidStatic, OfflineSfMispredictionCausesImbalance) {
  // Fig. 9 story: a wrong offline SF (too high) over-allocates to big
  // cores, making them the bottleneck.
  const auto p = amp_2s2b(2.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  const auto good = drive(ScheduleSpec::aid_static(1), 1200, layout,
                          *test::uniform_cost(1000, 2.0));
  const auto bad = drive(ScheduleSpec::aid_static_offline(6.0), 1200, layout,
                         *test::uniform_cost(1000, 2.0));
  EXPECT_GT(bad.sim.completion_ns, good.sim.completion_ns * 12 / 10);
}

TEST(AidStatic, ThreeCoreTypesGeneralization) {
  // Paper Sec. 4.2: "this approach can be seamlessly extended to platforms
  // with NC core types". 2+2+2 cores at speeds 1/2/4.
  platform::Platform p("tri", {{"slow", 2, 1.0, 1.0, ""},
                               {"mid", 2, 2.0, 1.5, ""},
                               {"fast", 2, 4.0, 2.0, ""}});
  const platform::TeamLayout layout(p, 6, platform::Mapping::kBigFirst);
  auto cost = std::make_shared<sim::UniformCostModel>(
      1000.0, std::vector<double>{1.0, 2.0, 4.0});
  const auto r = drive(ScheduleSpec::aid_static(1), 1400, layout, *cost);
  // k = 1400 / (2*4 + 2*2 + 2*1) = 100.
  // BS layout: tids 0,1 fast; 2,3 mid; 4,5 slow.
  for (int tid : {0, 1}) EXPECT_NEAR(static_cast<double>(total_of(r, tid)), 400, 25);
  for (int tid : {2, 3}) EXPECT_NEAR(static_cast<double>(total_of(r, tid)), 200, 25);
  for (int tid : {4, 5}) EXPECT_NEAR(static_cast<double>(total_of(r, tid)), 100, 25);
}

TEST(AidHybrid, TailIsScheduledDynamically) {
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  const auto r = drive(ScheduleSpec::aid_hybrid(1, 80.0), 2000, layout,
                       *test::uniform_cost(1000, 3.0));
  // ~20% of 2000 = 400 iterations drain through chunk-1 steals: expect
  // roughly that many removals (plus sampling and AID blocks).
  EXPECT_GT(r.sim.pool_removals, 300);
  EXPECT_LT(r.sim.pool_removals, 520);
  EXPECT_EQ(r.sim.total_iterations(), 2000);
}

TEST(AidHybrid, RecoversImbalanceFromDriftingCosts) {
  // EP/Fig. 4 scenario: per-iteration cost drifts upward, so the sampled
  // SF (early iterations) misrepresents the tail. AID-hybrid's dynamic
  // tail absorbs the error.
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  auto cost = std::make_shared<sim::AffineCostModel>(
      800.0, 0.05, 20000, std::vector<double>{1.0, 3.0});
  const auto st = drive(ScheduleSpec::aid_static(1), 20000, layout, *cost);
  const auto hy = drive(ScheduleSpec::aid_hybrid(1, 80.0), 20000, layout, *cost);
  EXPECT_LT(hy.sim.completion_ns, st.sim.completion_ns)
      << "hybrid should improve on AID-static under cost drift (Fig. 4)";
}

TEST(AidHybrid, PercentBoundsAreRespected) {
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  // 100% hybrid == AID-static behavior (no dynamic tail).
  const auto full = drive(ScheduleSpec::aid_hybrid(1, 100.0), 1000, layout,
                          *test::uniform_cost(1000, 3.0));
  EXPECT_LT(full.sim.pool_removals, 30);
}

TEST(AidBlock, StatsExposeEstimate) {
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  auto sched = make_scheduler(ScheduleSpec::aid_static(1), 1000, layout);
  sim::LoopSimulator simulator(layout, sim::OverheadModel::zero());
  (void)simulator.run(*sched, 1000, *test::uniform_cost(1000, 3.0));
  const auto stats = sched->stats();
  EXPECT_GT(stats.pool_removals, 0);
  EXPECT_NEAR(stats.estimated_sf, 3.0, 0.1);
}

TEST(AidBlock, ResetClearsEstimatorState) {
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  auto sched = make_scheduler(ScheduleSpec::aid_static(1), 1000, layout);
  sim::LoopSimulator simulator(layout, sim::OverheadModel::zero());
  const auto r1 = simulator.run(*sched, 1000, *test::uniform_cost(1000, 3.0));
  sched->reset(1000);
  const auto r2 = simulator.run(*sched, 1000, *test::uniform_cost(1000, 3.0));
  EXPECT_EQ(r1.completion_ns, r2.completion_ns);
  EXPECT_EQ(r1.iterations, r2.iterations);
}

TEST(AidBlock, OfflineSfFirstArmSplitsShardsBySf) {
  // A fresh aid-static(offline SF) instance must arm its shards by the
  // offline SF on its FIRST reset, not by nominal capacity: with SF 4 on
  // 2 small + 2 big (nominal 2.0), k = 1000 / (2·1 + 2·4) = 100, so the
  // small shard holds [0, 200) and the big shard [200, 1000), and every
  // thread's single AID block (100 small, 400 big) is served whole by its
  // home shard. A nominal-capacity split (1/3 : 2/3) would clamp the
  // second big block short at home.
  const auto p = platform::generic_amp(2, 2, 2.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  const ShardTopology topo = ShardTopology::from_layout(layout, 2);
  ASSERT_EQ(topo.nshards(), 2);
  auto sched = make_scheduler(ScheduleSpec::aid_static_offline(4.0), 1000,
                              layout, topo);
  const SteadyTimeSource clock;
  const int small_shard = topo.home_of(layout.nthreads() - 1);
  for (int tid = 0; tid < layout.nthreads(); ++tid) {
    ThreadContext tc;
    tc.tid = tid;
    tc.core_type = layout.core_type_of(tid);
    tc.speed = layout.speed_of(tid);
    tc.shard = sched->home_shard_of(tid);
    tc.time = &clock;
    IterRange r;
    ASSERT_TRUE(sched->next(tc, r)) << "tid " << tid;
    const bool small = tc.shard == small_shard;
    EXPECT_EQ(r.end - r.begin, small ? 100 : 400) << "tid " << tid;
    if (small) {
      EXPECT_GE(r.begin, 0) << "tid " << tid;
      EXPECT_LE(r.end, 200) << "tid " << tid;
    } else {
      EXPECT_GE(r.begin, 200) << "tid " << tid;
      EXPECT_LE(r.end, 1000) << "tid " << tid;
    }
  }
  const SchedulerStats stats = sched->stats();
  EXPECT_EQ(sched->remaining(), 0);
  EXPECT_EQ(stats.local_removals, 4);
  EXPECT_EQ(stats.steal_removals, 0);
}

}  // namespace
}  // namespace aid::sched
