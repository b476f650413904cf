// Fault-injection harness (src/fault/) driving the failure-domain layer:
// the AID_FAULT grammar, injected throws surfacing as master exceptions
// with exactly-once-or-cancelled accounting, injected stalls tripping the
// deadline watchdog (including the wedged-gate diagnostic dump), and a
// dropped gate wake recovered by the watchdog's kick.
//
// Plans are installed via fault::install() between constructs — the same
// code path AID_FAULT= reaches through init_from_env(), minus the
// process-global once-latch that would pin one plan for the whole binary.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/env.h"
#include "common/spin_work.h"
#include "fault/fault.h"
#include "platform/platform.h"
#include "pool/pool_manager.h"
#include "rt/team.h"
#include "sched/schedule_spec.h"

namespace aid::fault {
namespace {

using sched::ScheduleSpec;

/// Clears any installed plan on scope exit, so one test's faults never
/// leak into the next construct.
struct ScopedPlan {
  explicit ScopedPlan(const FaultPlan& plan) { install(plan); }
  ~ScopedPlan() { clear(); }
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;
};

rt::Team make_team(int nthreads) {
  return rt::Team(platform::generic_amp(2, 2, 2.0), nthreads,
                  platform::Mapping::kBigFirst, /*emulate_amp=*/false);
}

pool::PoolManager::Config pool_config() {
  pool::PoolManager::Config c;
  c.emulate_amp = false;  // failure mechanics, no duty-cycle throttling
  return c;
}

/// Per-iteration hit counters: the exactly-once-OR-cancelled invariant is
/// that no iteration ever runs twice, failure or not.
struct HitCounts {
  explicit HitCounts(i64 count) : hits(static_cast<usize>(count)) {}
  std::vector<std::atomic<int>> hits;

  rt::RangeBody body() {
    return [this](i64 b, i64 e, const rt::WorkerInfo&) {
      for (i64 i = b; i < e; ++i)
        hits[static_cast<usize>(i)].fetch_add(1, std::memory_order_relaxed);
    };
  }
  [[nodiscard]] i64 executed() const {
    i64 n = 0;
    for (const auto& h : hits) n += h.load(std::memory_order_relaxed);
    return n;
  }
  void expect_at_most_once() const {
    for (usize i = 0; i < hits.size(); ++i)
      ASSERT_LE(hits[i].load(std::memory_order_relaxed), 1)
          << "iteration " << i << " executed twice";
  }
};

// --- grammar ---------------------------------------------------------------

TEST(FaultPlanParse, AcceptsEveryClauseShape) {
  const auto plan = parse("throw@100;stall@200:50;delay@2:25;drop-wake@3");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->throw_at, 100);
  EXPECT_EQ(plan->stall_at, 200);
  EXPECT_EQ(plan->stall_ms, 50);
  EXPECT_EQ(plan->delay_tid, 2);
  EXPECT_EQ(plan->delay_us, 25);
  EXPECT_EQ(plan->drop_wakes, 3);
}

TEST(FaultPlanParse, BareDropWakeMeansOne) {
  const auto plan = parse("drop-wake");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->drop_wakes, 1);
}

TEST(FaultPlanParse, RejectsMalformedClauses) {
  EXPECT_FALSE(parse("throw").has_value());
  EXPECT_FALSE(parse("throw@abc").has_value());
  EXPECT_FALSE(parse("stall@5").has_value());      // missing :MS
  EXPECT_FALSE(parse("delay@1:").has_value());
  EXPECT_FALSE(parse("throw@-3").has_value());
  EXPECT_FALSE(parse("sparkle@1").has_value());
  // One bad clause poisons the whole plan — never half-apply.
  EXPECT_FALSE(parse("throw@10;sparkle").has_value());
}

TEST(FaultPlanParse, EmptyPlanIsValidButInert) {
  const auto plan = parse("");
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(plan->any());
}

// --- injected throws -------------------------------------------------------

TEST(FaultInjection, ThrowSurfacesOnTeamMasterAndTeamSurvives) {
  rt::Team team = make_team(4);
  constexpr i64 kCount = 1 << 14;
  {
    FaultPlan plan;
    plan.throw_at = kCount / 2;
    const ScopedPlan armed(plan);
    HitCounts counts(kCount);
    EXPECT_THROW(
        team.run_loop(kCount, ScheduleSpec::dynamic(16), counts.body()),
        std::runtime_error);
    counts.expect_at_most_once();
    // The throw cancelled the construct: the chunk containing throw_at
    // never ran its body, so full coverage is impossible.
    EXPECT_LT(counts.executed(), kCount);
  }
  // The gate closed exactly once and the lease released: the very next
  // construct on the same team must run normally to full coverage.
  HitCounts after(kCount);
  team.run_loop(kCount, ScheduleSpec::dynamic(16), after.body());
  EXPECT_EQ(after.executed(), kCount);
  after.expect_at_most_once();
}

TEST(FaultInjection, ThrowSurfacesThroughSerialTeam) {
  rt::Team team = make_team(1);
  FaultPlan plan;
  plan.throw_at = 10;
  const ScopedPlan armed(plan);
  EXPECT_THROW(
      team.run_loop(64, ScheduleSpec::dynamic(4),
                    [](i64, i64, const rt::WorkerInfo&) {}),
      std::runtime_error);
}

TEST(FaultInjection, ThrowSurfacesThroughPoolLeaseAndLeaseSurvives) {
  pool::PoolManager mgr(platform::generic_amp(2, 2, 2.0), pool_config());
  pool::AppHandle app = mgr.register_app("victim");
  constexpr i64 kCount = 1 << 13;
  {
    FaultPlan plan;
    plan.throw_at = kCount / 2;
    const ScopedPlan armed(plan);
    HitCounts counts(kCount);
    EXPECT_THROW(
        app.run_loop(kCount, ScheduleSpec::dynamic(16), counts.body()),
        std::runtime_error);
    counts.expect_at_most_once();
  }
  // The lease teardown criterion: in_loop released, subsequent loops run.
  HitCounts after(kCount);
  app.run_loop(kCount, ScheduleSpec::dynamic(16), after.body());
  EXPECT_EQ(after.executed(), kCount);
}

// --- injected stalls vs the deadline watchdog ------------------------------

TEST(FaultInjection, StallPastDeadlineIsCancelledWithDiagnosticDump) {
  // The stalled participant ignores its cancel until the stall returns, so
  // the gate stays open past deadline + grace: the watchdog must emit the
  // structured dump (to AID_WATCHDOG_DUMP) instead of hanging silently.
  const std::string dump_path =
      ::testing::TempDir() + "/aid_watchdog_dump.txt";
  std::remove(dump_path.c_str());
  const env::ScopedSet dump_env("AID_WATCHDOG_DUMP", dump_path);
  const env::ScopedSet grace_env("AID_WATCHDOG_GRACE_MS", "100");
  rt::Team team = make_team(2);  // grace read at Team construction

  constexpr i64 kCount = 1 << 12;
  FaultPlan plan;
  plan.stall_at = 0;     // whoever takes iteration 0's chunk sleeps...
  plan.stall_ms = 600;   // ...through deadline (50ms) AND grace (100ms)
  const ScopedPlan armed(plan);
  // 1ms per chunk: the non-stalled thread cannot drain the 256-chunk pool
  // before the deadline fires, so cancellation provably drops iterations.
  HitCounts counts(kCount);
  const rt::RangeBody inner = counts.body();
  const rt::RangeBody slow = [&inner](i64 b, i64 e, const rt::WorkerInfo& w) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    inner(b, e, w);
  };
  team.run_loop(kCount,
                ScheduleSpec::dynamic(16).with_deadline_ns(50'000'000), slow);
  // Deadline cancellation, not an error: remaining iterations dropped.
  counts.expect_at_most_once();
  EXPECT_GT(counts.executed(), 0);
  EXPECT_LT(counts.executed(), kCount);

  std::ifstream dump(dump_path);
  ASSERT_TRUE(dump.good()) << "watchdog dump file missing: " << dump_path;
  std::stringstream text;
  text << dump.rdbuf();
  EXPECT_NE(text.str().find("WATCHDOG"), std::string::npos) << text.str();
  EXPECT_NE(text.str().find("reason:    deadline"), std::string::npos)
      << text.str();
  EXPECT_NE(text.str().find("dock generation"), std::string::npos)
      << text.str();
}

TEST(FaultInjection, DelayClauseSlowsOnlyTheTargetThread) {
  // delay@0 charges every chunk tid 0 takes; with one even block per
  // thread the loop cannot finish before the master's delay elapses, and
  // coverage stays exactly-once (a delay perturbs timing, never work).
  rt::Team team = make_team(2);
  FaultPlan plan;
  plan.delay_tid = 0;
  plan.delay_us = 30'000;
  const ScopedPlan armed(plan);
  HitCounts counts(64);
  const auto t0 = std::chrono::steady_clock::now();
  team.run_loop(64, ScheduleSpec::static_even(), counts.body());
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                .count(),
            30'000);
  EXPECT_EQ(counts.executed(), 64);
  counts.expect_at_most_once();
}

TEST(FaultInjection, DelayOnThrottledSmallCoreIsNotScaledBySlowdown) {
  // The throttle charges (slowdown - 1) x the BODY time only: a 30 ms
  // injected delay on an emulated 2x-slower core must not be busy-spun
  // again after the body (which would take the construct to ~2x the
  // delay). Timed from the delayed body's end to the construct's return,
  // so how late the sleeping worker wakes under load does not count.
  rt::Team team(platform::generic_amp(2, 2, 2.0), 4,
                platform::Mapping::kBigFirst, /*emulate_amp=*/true);
  constexpr int kSmallTid = 3;
  ASSERT_EQ(team.layout().core_type_of(kSmallTid), 0);
  // Finish lazy set-up outside the timed construct: the throttle's spin
  // calibration runs on the first charge.
  (void)spin_units_per_second();
  constexpr i64 kDelayUs = 30'000;
  FaultPlan plan;
  plan.delay_tid = kSmallTid;
  plan.delay_us = kDelayUs;
  const ScopedPlan armed(plan);
  using Clock = std::chrono::steady_clock;
  HitCounts counts(4);
  const rt::RangeBody inner = counts.body();
  std::atomic<Clock::rep> delayed_end{0};
  const auto t0 = Clock::now();
  team.run_loop(4, ScheduleSpec::static_even(),
                [&](i64 b, i64 e, const rt::WorkerInfo& w) {
                  inner(b, e, w);
                  if (w.tid == kSmallTid)
                    delayed_end.store(Clock::now().time_since_epoch().count());
                });
  const auto t1 = Clock::now();
  const auto us = [](Clock::duration d) {
    return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
  };
  EXPECT_GE(us(t1 - t0), kDelayUs);
  const Clock::time_point body_end{Clock::duration{delayed_end.load()}};
  EXPECT_LT(us(t1 - body_end), kDelayUs / 2)
      << "the delay was charged to the throttle";
  EXPECT_EQ(counts.executed(), 4);
  counts.expect_at_most_once();
}

// --- dropped wakes vs the watchdog's kick ----------------------------------

TEST(FaultInjection, DroppedGateWakeIsRecoveredByWatchdogKick) {
  // Force the master to the futex (zero spin/yield budget), slow the
  // worker so the master is parked when the final check_in publishes, and
  // drop that publish's notify: without the watchdog's grace-period kick
  // the master would sleep forever on a completed construct.
  const env::ScopedSet spin_env("AID_FORKJOIN_SPIN", "0");
  const env::ScopedSet yield_env("AID_FORKJOIN_YIELD", "0");
  const env::ScopedSet grace_env("AID_WATCHDOG_GRACE_MS", "100");
  rt::Team team = make_team(2);

  FaultPlan plan;
  plan.delay_tid = 1;
  plan.delay_us = 50'000;  // worker finishes ~50ms in
  plan.drop_wakes = 1;
  const ScopedPlan armed(plan);
  HitCounts counts(2);
  // Deadline 200ms: fires after the loop's real work completed, so the
  // only effect is the grace sweep's unconditional kick at ~300ms.
  team.run_loop(2, ScheduleSpec::static_even().with_deadline_ns(200'000'000),
                counts.body());
  EXPECT_EQ(counts.executed(), 2);
  counts.expect_at_most_once();
}

// --- env fallback (the AID_FAULT path itself) ------------------------------

TEST(FaultInjection, MalformedEnvPlanInstallsNothing) {
  // init_from_env is once-per-process (the runtimes' constructors already
  // consumed it), so exercise the same parse+reject contract directly.
  EXPECT_FALSE(parse("stall@oops").has_value());
  EXPECT_FALSE(enabled());
}

}  // namespace
}  // namespace aid::fault
