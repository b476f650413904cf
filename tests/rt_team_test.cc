// rt/: the real-thread runtime. These tests use actual concurrency; they
// assert correctness properties (coverage, invariance, termination), never
// absolute timing — the CI host is small and oversubscribed.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "common/env.h"
#include "pipeline/loop_chain.h"
#include "rt/runtime.h"
#include "rt/runtime_config.h"
#include "rt/team.h"
#include "rt/throttle.h"

namespace aid::rt {
namespace {

using platform::Mapping;
using sched::ScheduleSpec;

platform::Platform small_amp() { return platform::generic_amp(2, 2, 3.0); }

std::vector<ScheduleSpec> all_specs() {
  return {ScheduleSpec::static_even(),       ScheduleSpec::static_chunked(3),
          ScheduleSpec::dynamic(1),          ScheduleSpec::dynamic(4),
          ScheduleSpec::guided(1),           ScheduleSpec::aid_static(1),
          ScheduleSpec::aid_hybrid(1, 80.0), ScheduleSpec::aid_dynamic(1, 5)};
}

TEST(Team, EveryScheduleCoversEveryIterationExactlyOnce) {
  Team team(small_amp(), 4, Mapping::kBigFirst, /*emulate_amp=*/false);
  for (const auto& spec : all_specs()) {
    constexpr i64 kCount = 5000;
    std::vector<std::atomic<int>> hits(kCount);
    for (auto& h : hits) h.store(0);
    team.run_loop(kCount, spec, [&](i64 b, i64 e, const WorkerInfo&) {
      for (i64 i = b; i < e; ++i) hits[static_cast<usize>(i)].fetch_add(1);
    });
    for (i64 i = 0; i < kCount; ++i)
      ASSERT_EQ(hits[static_cast<usize>(i)].load(), 1)
          << spec.display() << " iteration " << i;
  }
}

TEST(Team, ParallelForMapsUserSpace) {
  Team team(small_amp(), 3, Mapping::kBigFirst, false);
  std::atomic<i64> sum{0};
  // for (i = 10; i < 30; i += 2): values 10,12,...,28 -> sum 190.
  team.parallel_for(10, 30, 2, ScheduleSpec::dynamic(1),
                    [&](i64 i, const WorkerInfo&) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 190);
}

TEST(Team, NegativeStepLoop) {
  Team team(small_amp(), 2, Mapping::kBigFirst, false);
  std::atomic<i64> sum{0};
  // for (i = 10; i > 0; i -= 3): 10, 7, 4, 1 -> 22.
  team.parallel_for(10, 0, -3, ScheduleSpec::static_even(),
                    [&](i64 i, const WorkerInfo&) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 22);
}

TEST(Team, WorkerInfoReflectsLayout) {
  Team team(small_amp(), 4, Mapping::kBigFirst, false);
  std::vector<std::atomic<int>> seen_type(4);
  for (auto& s : seen_type) s.store(-1);
  team.run_loop(1000, ScheduleSpec::dynamic(1),
                [&](i64, i64, const WorkerInfo& w) {
                  seen_type[static_cast<usize>(w.tid)].store(w.core_type);
                });
  // BS on 2s2b: tids 0,1 big (type 1).
  EXPECT_EQ(seen_type[0].load(), 1);
  // Other threads may or may not win iterations, but if they did, the type
  // must match the layout.
  for (int tid = 0; tid < 4; ++tid) {
    const int t = seen_type[static_cast<usize>(tid)].load();
    if (t >= 0) {
      EXPECT_EQ(t, team.layout().core_type_of(tid)) << tid;
    }
  }
}

TEST(Team, SmallFirstUndersizedTeamDispatchesByCore) {
  // 3 threads SB-mapped on 2S+2B: tids 0,1 small, tid 2 big, core 3
  // unused. Workers are indexed by layout().core_of(tid), so a wrong
  // tid->core map shows as a wrong core type or a lost/doubled iteration.
  Team team(platform::generic_amp(2, 2, 2.0), 3, Mapping::kSmallFirst,
            /*emulate_amp=*/false);
  ASSERT_EQ(team.nthreads(), 3);
  std::atomic<int> type_mismatches{0};
  const auto check_type = [&](const WorkerInfo& w) {
    if (w.core_type != team.layout().core_type_of(w.tid))
      type_mismatches.fetch_add(1);
  };

  constexpr i64 kCount = 3000;
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& h : hits) h.store(0);
  team.run_loop(kCount, ScheduleSpec::dynamic(1),
                [&](i64 b, i64 e, const WorkerInfo& w) {
                  check_type(w);
                  for (i64 i = b; i < e; ++i)
                    hits[static_cast<usize>(i)].fetch_add(1);
                });
  for (i64 i = 0; i < kCount; ++i)
    ASSERT_EQ(hits[static_cast<usize>(i)].load(), 1) << "iteration " << i;

  constexpr usize kLoops = 3 * Team::kChainRing + 1;
  constexpr i64 kPerLoop = 257;
  std::vector<std::atomic<int>> chain_hits(kLoops * kPerLoop);
  for (auto& h : chain_hits) h.store(0);
  pipeline::LoopChain chain;
  for (usize l = 0; l < kLoops; ++l) {
    chain.add(kPerLoop,
              l % 2 == 0 ? ScheduleSpec::static_even()
                         : ScheduleSpec::dynamic(4),
              [&, l](i64 b, i64 e, const WorkerInfo& w) {
                check_type(w);
                for (i64 i = b; i < e; ++i)
                  chain_hits[l * kPerLoop + static_cast<usize>(i)]
                      .fetch_add(1);
              });
  }
  team.run_chain(chain);
  for (usize i = 0; i < chain_hits.size(); ++i)
    ASSERT_EQ(chain_hits[i].load(), 1) << "chain slot " << i;
  EXPECT_EQ(type_mismatches.load(), 0);
}

TEST(Team, EmptyLoopCompletes) {
  Team team(small_amp(), 4, Mapping::kBigFirst, false);
  bool ran = false;
  team.run_loop(0, ScheduleSpec::aid_static(1),
                [&](i64, i64, const WorkerInfo&) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(Team, SingleThreadTeam) {
  Team team(small_amp(), 1, Mapping::kBigFirst, false);
  std::atomic<i64> n{0};
  team.run_loop(100, ScheduleSpec::aid_dynamic(1, 5),
                [&](i64 b, i64 e, const WorkerInfo&) { n.fetch_add(e - b); });
  EXPECT_EQ(n.load(), 100);
}

TEST(Team, ManyConsecutiveLoopsReuseWorkers) {
  Team team(small_amp(), 4, Mapping::kBigFirst, false);
  std::atomic<i64> total{0};
  for (int l = 0; l < 200; ++l) {
    team.run_loop(64, ScheduleSpec::dynamic(2),
                  [&](i64 b, i64 e, const WorkerInfo&) {
                    total.fetch_add(e - b);
                  });
  }
  EXPECT_EQ(total.load(), 200 * 64);
}

TEST(Team, LastLoopStatsExposed) {
  Team team(small_amp(), 4, Mapping::kBigFirst, false);
  team.run_loop(500, ScheduleSpec::dynamic(1),
                [](i64, i64, const WorkerInfo&) {});
  EXPECT_GE(team.last_loop_stats().pool_removals, 500);
}

TEST(Team, AidSamplingEstimatesThrottledAsymmetry) {
  // With duty-cycle emulation on, AID's sampling should observe SF > 1 for
  // a compute-heavy body. The CI host is tiny and oversubscribed, so a
  // single sample can be inverted by preemption — take the best of several
  // attempts and only require that asymmetry was observable at least once.
  // The loop must be long enough to outlive the host's thread-wakeup
  // latency: on a one-CPU box the master can otherwise drain the whole
  // pool before the small-core workers ever run, leaving them nothing to
  // sample (all-zero samples degenerate to SF == 1).
  Team team(platform::generic_amp(2, 2, 3.0), 4, Mapping::kBigFirst,
            /*emulate_amp=*/true);
  double best_sf = 0.0;
  for (int attempt = 0; attempt < 8 && best_sf <= 1.2; ++attempt) {
    team.run_loop(12000, ScheduleSpec::aid_static(8),
                  [](i64 b, i64 e, const WorkerInfo&) {
                    for (i64 i = b; i < e; ++i) spin_work(400);
                  });
    best_sf = std::max(best_sf, team.last_loop_stats().estimated_sf);
  }
  EXPECT_GT(best_sf, 1.2);
  // No meaningful upper bound: preemption on the oversubscribed CI host can
  // stretch a single small-core sample arbitrarily.
}

TEST(Throttle, DisabledForFastestCores) {
  const Throttle t(1.0, true);
  EXPECT_FALSE(t.enabled());
  const Throttle t2(2.0, false);
  EXPECT_FALSE(t2.enabled());
  const Throttle t3(2.0, true);
  EXPECT_TRUE(t3.enabled());
}

TEST(RuntimeConfig, ReadsEnvironment) {
  env::ScopedSet sched_guard("AID_SCHEDULE", "aid-dynamic,2,10");
  env::ScopedSet threads_guard("AID_NUM_THREADS", "3");
  env::ScopedSet affinity_guard("AID_AMP_AFFINITY", "1");
  const auto cfg = RuntimeConfig::from_env();
  EXPECT_EQ(cfg.schedule.kind, sched::ScheduleKind::kAidDynamic);
  EXPECT_EQ(cfg.schedule.chunk, 2);
  EXPECT_EQ(cfg.schedule.major_chunk, 10);
  EXPECT_EQ(cfg.num_threads, 3);
  EXPECT_EQ(cfg.mapping, Mapping::kBigFirst)
      << "AID_AMP_AFFINITY implies the BS convention (Sec. 4.3)";
}

TEST(RuntimeConfig, BadScheduleFallsBackToStatic) {
  env::ScopedSet guard("AID_SCHEDULE", "wibble,9");
  const auto cfg = RuntimeConfig::from_env();
  EXPECT_EQ(cfg.schedule.kind, sched::ScheduleKind::kStatic);
}

TEST(RuntimeConfig, MappingOverride) {
  env::ScopedSet affinity_guard("AID_AMP_AFFINITY", "1");
  env::ScopedSet mapping_guard("AID_MAPPING", "SB");
  const auto cfg = RuntimeConfig::from_env();
  EXPECT_EQ(cfg.mapping, Mapping::kSmallFirst)
      << "explicit AID_MAPPING wins over AID_AMP_AFFINITY";
}

TEST(RuntimeConfig, DescribeMentionsKeyFields) {
  const RuntimeConfig cfg;
  const std::string d = cfg.describe();
  EXPECT_NE(d.find("schedule=static"), std::string::npos);
  EXPECT_NE(d.find("mapping=SB"), std::string::npos);
}

TEST(IsolatedRuntime, RunsLoopsWithEnvSchedule) {
  RuntimeConfig cfg;
  cfg.schedule = ScheduleSpec::aid_static(1);
  cfg.num_threads = 4;
  cfg.mapping = Mapping::kBigFirst;
  cfg.emulate_amp = false;
  Runtime runtime(small_amp(), cfg);
  std::atomic<i64> sum{0};
  runtime.team().parallel_for(0, 100, 1, runtime.default_schedule(),
                              [&](i64 i, const WorkerInfo&) {
                                sum.fetch_add(i);
                              });
  EXPECT_EQ(sum.load(), 4950);
}

}  // namespace
}  // namespace aid::rt
