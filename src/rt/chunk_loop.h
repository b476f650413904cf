// The chunk loop: one team member's share of a work-sharing construct.
//
// The dispatch engine (pool::WorkerPool, which rt::Team runs on too)
// hands every participant (master and workers alike) to run_chunks(): take
// a range from the loop's scheduler, run the body on it, charge the
// small-core throttle, repeat until the scheduler runs dry or the
// construct is cancelled.
//
// It runs once per chunk, so it is kept free of costs the AID algorithm
// does not define: the wall clock is read only by members whose Throttle is
// enabled (the clock's only consumer here; SF sampling reads the
// scheduler's own ThreadContext::time), and the throttle's timing window
// brackets the body alone — an injected fault-probe delay is not scaled.
#pragma once

#include <functional>

#include "common/cancel.h"
#include "common/time_source.h"
#include "common/types.h"
#include "platform/team_layout.h"
#include "rt/throttle.h"
#include "sched/loop_scheduler.h"

namespace aid::rt {

/// Per-worker facts exposed to loop bodies.
struct WorkerInfo {
  int tid = 0;
  int core_type = 0;
  double speed = 1.0;
};

/// A loop body invoked once per scheduler-assigned range of canonical
/// iterations [begin, end). Bodies must be thread-safe across disjoint
/// ranges (the usual OpenMP contract).
using RangeBody = std::function<void(i64 begin, i64 end, const WorkerInfo&)>;

/// Run team member `tid`'s chunks of the construct `sched` drives.
///
/// `wall` times the body for `throttle` and is read twice per chunk when the
/// throttle is enabled, never otherwise; `sf_time` becomes the schedulers'
/// ThreadContext::time. A throwing body (or fault probe) never unwinds out:
/// the first exception per construct is captured into `token` (atomic
/// claim), which cancels the construct, so the next take exits the loop and
/// the caller still checks into its completion gate. `token` may be null
/// only when no body can throw.
void run_chunks(sched::LoopScheduler& sched, const RangeBody& body,
                const platform::TeamLayout& layout, int tid,
                const Throttle& throttle, const TimeSource& wall,
                const TimeSource* sf_time, CancelToken* token);

}  // namespace aid::rt
