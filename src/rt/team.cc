#include "rt/team.h"

#include "common/check.h"
#include "pipeline/loop_chain.h"

namespace aid::rt {

Team::Team(const platform::Platform& platform, int nthreads,
           platform::Mapping mapping, bool emulate_amp, bool bind_threads,
           bool sf_cpu_time)
    : platform_(platform),
      layout_(platform_, nthreads > 0 ? nthreads : platform_.num_cores(),
              mapping),
      shard_topo_(sched::ShardTopology::from_layout(layout_)),
      pool_(platform_, {emulate_amp, bind_threads, sf_cpu_time},
            layout_.nthreads()) {
  // The layout never moves and every entry of job_ is published on it, so
  // one window serves the team's lifetime. Opening it here binds the
  // constructing thread and spawns the workers now, before the first
  // construct, rather than letting thread creation race that construct.
  pool_.open_window(layout_, job_, job_.next_seq);
}

void Team::enter() {
  AID_CHECK_MSG(!in_loop_.exchange(true),
                "nested/concurrent run_loop/run_chain is not supported");
}

void Team::leave(const std::exception_ptr& error) {
  // Cleanup first, rethrow last: the team stays usable after a thrown body.
  in_loop_.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

void Team::run_loop(i64 count, const sched::ScheduleSpec& spec,
                    const RangeBody& body) {
  enter();
  if (count == 0) {
    // Empty loop: no scheduler, no dispatch, no barrier.
    last_stats_ = sched::SchedulerStats{};
    leave(nullptr);
    return;
  }
  const pool::WorkerPool::Result result = pool_.run_loop(
      target(), count, spec, body, job_, /*lease_cancel=*/nullptr, watchdog_);
  last_stats_ = result.stats;
  leave(result.error);
}

void Team::run_chain(const pipeline::LoopChain& chain) {
  if (chain.empty()) return;
  enter();
  const pool::WorkerPool::Result result = pool_.run_chain(
      chain, job_, target(), /*lease_cancel=*/nullptr, watchdog_);
  last_stats_ = result.stats;
  leave(result.error);
}

}  // namespace aid::rt
