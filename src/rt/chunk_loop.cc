#include "rt/chunk_loop.h"

#include <exception>
#include <optional>

#include "fault/fault.h"

namespace aid::rt {

void run_chunks(sched::LoopScheduler& sched, const RangeBody& body,
                const platform::TeamLayout& layout, int tid,
                const Throttle& throttle, const TimeSource& wall,
                const TimeSource* sf_time, CancelToken* token) {
  sched::ThreadContext tc{
      .tid = tid,
      .core_type = layout.core_type_of(tid),
      .speed = layout.speed_of(tid),
      .shard = sched.home_shard_of(tid),
      .time = sf_time,
      .cancel = token,
  };
  const WorkerInfo info{tid, tc.core_type, tc.speed};
  // Latched once per participation: the per-chunk fault probe and the
  // throttle's clock reads are then plain register tests per chunk.
  const bool fault_on = fault::enabled();
  const bool timed = throttle.enabled();

  sched::IterRange r;
  while (sched.next(tc, r)) {
    // Unset when the fault probe throws: no body ran, nothing to charge.
    std::optional<Nanos> t0;
    // The capture shim: a throwing body must never unwind past the dock
    // loop (workers have no handler up-stack — unwinding would terminate).
    // The FIRST exception per construct is stashed in the token (atomic
    // claim) and doubles as the cancellation signal; the next sched.next()
    // observes it, poisons the pool, and exits the take loop, so the gate
    // still closes and the master rethrows after the barrier.
    try {
      if (fault_on) [[unlikely]]
        fault::before_chunk(tid, r.begin, r.end);
      if (timed) t0 = wall.now();
      body(r.begin, r.end, info);
    } catch (...) {
      if (token != nullptr) token->capture(std::current_exception());
    }
    if (t0) throttle.pay(wall.now() - *t0);
  }
}

}  // namespace aid::rt
