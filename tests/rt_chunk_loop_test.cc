// The shared chunk loop (rt/chunk_loop.h), driven on the calling thread
// with a counting wall clock: what it reads per chunk, and how it captures
// a throwing body or fault probe.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "common/cancel.h"
#include "common/time_source.h"
#include "fault/fault.h"
#include "platform/platform.h"
#include "platform/team_layout.h"
#include "rt/chunk_loop.h"
#include "rt/throttle.h"
#include "sched/loop_scheduler.h"
#include "sched/schedule_spec.h"

namespace aid::rt {
namespace {

using sched::ScheduleSpec;

/// Wall-clock stand-in that counts its reads and advances 1 ns per read,
/// so a throttled chunk charges a 1 ns spin.
class CountingClock final : public TimeSource {
 public:
  [[nodiscard]] Nanos now() const override { return ++reads_; }
  [[nodiscard]] i64 reads() const { return reads_; }

 private:
  mutable i64 reads_ = 0;
};

/// One member of a 1 small + 1 big team (big first: tid 0 big, tid 1
/// small) running a dynamic,1 loop alone, so every iteration is a chunk.
struct Fixture {
  static constexpr i64 kCount = 100;
  platform::Platform platform = platform::generic_amp(1, 1, 2.0);
  platform::TeamLayout layout{platform, 2, platform::Mapping::kBigFirst};
  std::unique_ptr<sched::LoopScheduler> sched =
      sched::make_scheduler(ScheduleSpec::dynamic(1), kCount, layout);
  CountingClock wall;
  ManualTimeSource sf_time;
  CancelToken token;
  i64 chunks = 0;

  void run(int tid, const Throttle& throttle, const RangeBody& body) {
    run_chunks(*sched, body, layout, tid, throttle, wall, &sf_time, &token);
  }
  RangeBody counting_body() {
    return [this](i64, i64, const WorkerInfo&) { ++chunks; };
  }
};

TEST(ChunkLoop, UnthrottledMemberNeverReadsTheWallClock) {
  // The fastest core type, and any core with emulation off.
  for (const Throttle& off : {Throttle(1.0, true), Throttle(2.0, false)}) {
    ASSERT_FALSE(off.enabled());
    Fixture f;
    f.run(/*tid=*/1, off, f.counting_body());
    EXPECT_EQ(f.chunks, Fixture::kCount);
    EXPECT_EQ(f.wall.reads(), 0);
  }
}

TEST(ChunkLoop, ThrottledMemberReadsTheWallClockTwicePerChunk) {
  Fixture f;
  const Throttle small(2.0, /*enabled=*/true);
  ASSERT_TRUE(small.enabled());
  f.run(/*tid=*/1, small, f.counting_body());
  EXPECT_EQ(f.chunks, Fixture::kCount);
  EXPECT_EQ(f.wall.reads(), 2 * Fixture::kCount);
}

TEST(ChunkLoop, ThrowingBodyIsCapturedAndTheLoopExitsAtTheNextTake) {
  Fixture f;
  const Throttle small(2.0, /*enabled=*/true);
  f.run(/*tid=*/1, small, [&f](i64, i64, const WorkerInfo&) {
    ++f.chunks;
    throw std::runtime_error("body failed");
  });
  EXPECT_EQ(f.chunks, 1) << "the take after the throw must see the cancel";
  EXPECT_TRUE(f.token.cancelled());
  ASSERT_NE(f.token.error(), nullptr);
  EXPECT_THROW(std::rethrow_exception(f.token.error()), std::runtime_error);
  // The partial chunk is still charged: its window opened before the body.
  EXPECT_EQ(f.wall.reads(), 2);
}

TEST(ChunkLoop, ThrowingFaultProbeChargesNothing) {
  // The probe runs before the throttle's window opens: a chunk whose probe
  // throws ran no body, reads no clock and spins nothing.
  fault::FaultPlan plan;
  plan.throw_at = 0;
  fault::install(plan);
  Fixture f;
  const Throttle small(2.0, /*enabled=*/true);
  f.run(/*tid=*/1, small, f.counting_body());
  fault::clear();
  EXPECT_EQ(f.chunks, 0);
  EXPECT_EQ(f.wall.reads(), 0);
  ASSERT_NE(f.token.error(), nullptr);
  EXPECT_THROW(std::rethrow_exception(f.token.error()), std::runtime_error);
}

}  // namespace
}  // namespace aid::rt
