// PipelineExecutor — the application-facing entry point of the
// loop-pipeline subsystem.
//
// Wraps a Runtime (team- or pool-backed, transparently) with an
// enqueue/flush surface: enqueue() stages loops into a pending chain and
// returns immediately; flush() hands the whole chain to the runtime's
// pipelined chain executor and blocks until every loop has completed —
// the only point where the calling thread joins. Inside the runtime the
// chain's loops are dispatched over the per-core generation docks with
// nowait semantics: a team member that drains its share of loop k flows
// straight into loop k+1 while stragglers finish loop k, and only
// depends_on edges gate entry (see src/pipeline/README.md).
//
// Quickstart:
//   aid::pipeline::PipelineExecutor pipe;           // global runtime
//   int a = pipe.enqueue(n, spec, fill_body);
//   pipe.enqueue(n, spec, scale_body);              // overlaps `fill`
//   pipe.enqueue_after(a, n, spec, reduce_body);    // waits for `fill`
//   pipe.flush();                                   // join once, at the end
#pragma once

#include "pipeline/loop_chain.h"
#include "rt/runtime.h"

namespace aid::pipeline {

class PipelineExecutor {
 public:
  /// Executes on the global runtime (environment-configured; routes to the
  /// shared pool under AID_POOL=1).
  PipelineExecutor() : rt_(rt::Runtime::instance()) {}
  /// Executes on an explicit runtime (tests, multi-runtime experiments).
  explicit PipelineExecutor(rt::Runtime& rt) : rt_(rt) {}

  PipelineExecutor(const PipelineExecutor&) = delete;
  PipelineExecutor& operator=(const PipelineExecutor&) = delete;

  /// Destruction flushes any still-pending loops (so a scoped executor
  /// behaves like the end of a parallel region).
  ~PipelineExecutor() { flush(); }

  /// Stage a loop behind everything already enqueued; returns its chain
  /// index for use as a later loop's dependency. Does not block.
  int enqueue(i64 count, const sched::ScheduleSpec& spec, rt::RangeBody body,
              int depends_on = -1) {
    return pending_.add(count, spec, std::move(body), depends_on);
  }

  /// Stage a loop that must wait for enqueued loop `dep` to fully complete
  /// before any of its iterations run.
  int enqueue_after(int dep, i64 count, const sched::ScheduleSpec& spec,
                    rt::RangeBody body) {
    return pending_.add_after(dep, count, spec, std::move(body));
  }

  /// Execute the pending chain (pipelined, nowait between loops) and block
  /// until every loop has completed; the pending chain is then empty and
  /// previously returned indices are invalidated.
  void flush() {
    if (pending_.empty()) return;
    rt_.run_chain(pending_);
    pending_.clear();
  }

  /// Execute an externally built chain immediately (blocks at its end).
  void run(const LoopChain& chain) {
    flush();  // preserve enqueue order across the two surfaces
    rt_.run_chain(chain);
  }

  [[nodiscard]] usize pending_loops() const { return pending_.size(); }

 private:
  rt::Runtime& rt_;
  LoopChain pending_;
};

}  // namespace aid::pipeline
