#include "pool/worker_pool.h"

#include "common/affinity.h"
#include "common/check.h"
#include "common/env.h"
#include "common/spin_wait.h"
#include "fault/fault.h"
#include "pipeline/loop_chain.h"

namespace aid::pool {

WorkerPool::WorkerPool(const platform::Platform& platform, Options options,
                       int max_partition)
    : platform_(platform),
      options_(options),
      sf_clock_(options.sf_cpu_time
                    ? static_cast<const TimeSource*>(&cpu_clock_)
                    : static_cast<const TimeSource*>(&clock_)),
      slots_(static_cast<usize>(platform_.num_cores())),
      spin_budget_(static_cast<i32>(env::get_int_at_least(
          "AID_FORKJOIN_SPIN", default_spin_budget(max_partition), 0))),
      yield_budget_(static_cast<i32>(env::get_int_at_least(
          "AID_FORKJOIN_YIELD", default_yield_budget(max_partition), 0))) {
  const double max_speed =
      platform_.speed_of_type(platform_.num_core_types() - 1);
  for (int core = 0; core < platform_.num_cores(); ++core)
    slots_[static_cast<usize>(core)].throttle = rt::Throttle(
        max_speed / platform_.speed_of_core(core), options_.emulate_amp);
  // Arm the fault-injection plan (if AID_FAULT is set) before any worker
  // can run a body shim; once-per-process, no-op thereafter.
  fault::init_from_env();
}

WorkerPool::~WorkerPool() {
  // Cold path: bump every spawned dock and broadcast on the shared epoch.
  // Workers check shutting_down_ before touching the window/entry fields.
  // The owner guarantees no loop is in flight.
  shutting_down_.store(true, std::memory_order_seq_cst);
  for (auto& slot : slots_) {
    if (!slot.worker.joinable()) continue;
    Dock& dock = *slot.dock;
    dock.gen.store(dock.gen.load(std::memory_order_relaxed) + 1,
                   std::memory_order_seq_cst);
  }
  epoch_->fetch_add(1, std::memory_order_seq_cst);
  epoch_->notify_all();
  for (auto& slot : slots_)
    if (slot.worker.joinable()) slot.worker.join();
}

void WorkerPool::spawn(CoreSlot& slot, int core_id) {
  spawned_.fetch_add(1, std::memory_order_relaxed);
  const bool bind = options_.bind_threads;
  slot.worker = std::thread([this, &slot, core_id, bind] {
    if (bind) try_bind_to_core(core_id);
    worker_main(slot);
  });
}

u64 WorkerPool::wait_for_dispatch(Dock& dock, u64 seen) {
  u64 g = dock.gen.load(std::memory_order_acquire);
  if (g != seen) return g;

  if (spin_then_yield(
          [&] {
            g = dock.gen.load(std::memory_order_acquire);
            return g != seen;
          },
          spin_budget_, yield_budget_))
    return g;

  // Block on the shared epoch. The sleepers_ increment precedes the final
  // dock re-check so it pairs with publish_entry's bump-then-check-sleepers
  // sequence (Dekker: either we see the new generation here, or the master
  // sees our registration and pays the wake syscall). With several masters
  // the epoch advances on every dispatch by anybody, so a worker may wake
  // for a job that is not its own; it simply re-checks its dock and sleeps
  // again (spurious wakes are correctness-neutral).
  for (;;) {
    const u64 e = epoch_->load(std::memory_order_seq_cst);
    sleepers_->fetch_add(1, std::memory_order_seq_cst);
    g = dock.gen.load(std::memory_order_seq_cst);
    if (g != seen) {
      sleepers_->fetch_sub(1, std::memory_order_relaxed);
      return g;
    }
    epoch_->wait(e, std::memory_order_seq_cst);
    sleepers_->fetch_sub(1, std::memory_order_relaxed);
  }
}

void WorkerPool::worker_main(CoreSlot& slot) {
  Dock& dock = *slot.dock;
  u64 seen = 0;
  for (;;) {
    const u64 g = wait_for_dispatch(dock, seen);
    if (shutting_down_.load(std::memory_order_acquire)) return;
    // Window fields were written before the generation's release-store; the
    // acquire read in wait_for_dispatch makes them visible. Every
    // generation in (seen, g] belongs to the same window: a new window is
    // opened only after the previous one fully completed, which requires
    // this worker to have drained all of its generations first.
    PoolJob& job = *dock.job;
    const platform::TeamLayout& layout = *dock.layout;
    const int tid = dock.tid;
    const u64 base_gen = dock.base_gen;
    const u64 base_seq = dock.base_seq;
    for (u64 gen = seen + 1; gen <= g; ++gen)
      run_entry(job, layout, base_seq + (gen - base_gen), tid,
                slot.throttle);
    seen = g;
  }
}

void WorkerPool::run_entry(PoolJob& job, const platform::TeamLayout& layout,
                           u64 seq, int tid, const rt::Throttle& throttle) {
  PoolJob::Entry& entry = job.entry_of(seq);
  if (entry.dep_seq != 0) {
    wait_entry(job, entry.dep_seq);
    // A cancelled predecessor cancels its dependents: fold the dependency
    // gate's cancelled watermark into this entry's token (first sighting
    // wins; every sibling does the same).
    if (job.entry_of(entry.dep_seq).gate.was_cancelled(entry.dep_seq))
      entry.token.cancel(CancelReason::kDependency);
  }
  rt::run_chunks(*entry.sched, *entry.body, layout, tid, throttle, clock_,
                 sf_clock_, &entry.token);
  entry.gate.check_in(seq, entry.token.cancelled());
}

u64 PoolJob::stage(int participants, sched::LoopScheduler* sched,
                   const rt::RangeBody* body, u64 dep_seq,
                   const CancelToken* parent_a, const CancelToken* parent_b) {
  const u64 seq = next_seq++;
  Entry& entry = entry_of(seq);
  AID_DCHECK(seq <= kChainRing || entry.gate.complete(seq - kChainRing));
  entry.sched = sched;
  entry.body = body;
  entry.dep_seq = dep_seq;
  // Re-own the slot token for the new occupant (the previous one was
  // harvested) and chain it to the caller's parents.
  entry.token.reset();
  entry.token.bind(parent_a, parent_b);
  entry.gate.arm(participants, seq);
  return seq;
}

void WorkerPool::open_window(const platform::TeamLayout& layout, PoolJob& job,
                             u64 seq0) {
  if (options_.bind_threads) try_bind_to_core(layout.core_of(0));
  for (int tid = 1; tid < layout.nthreads(); ++tid) {
    CoreSlot& slot = slots_[static_cast<usize>(layout.core_of(tid))];
    Dock& dock = *slot.dock;
    dock.job = &job;
    dock.layout = &layout;
    dock.tid = tid;
    dock.base_gen = dock.gen.load(std::memory_order_relaxed) + 1;
    dock.base_seq = seq0;
    // Lazy spawn, on the core's first window: thread creation orders the
    // window stores above before the worker's first read, and the worker
    // is already waiting on its dock when the first entry is published.
    if (!slot.worker.joinable()) spawn(slot, layout.core_of(tid));
  }
}

void WorkerPool::publish_entry(const platform::TeamLayout& layout) {
  const int n = layout.nthreads();
  if (n <= 1) return;  // single-core partition: the master runs alone
  for (int tid = 1; tid < n; ++tid) {
    Dock& dock = *slots_[static_cast<usize>(layout.core_of(tid))].dock;
    dock.gen.store(dock.gen.load(std::memory_order_relaxed) + 1,
                   std::memory_order_seq_cst);
  }
  epoch_->fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_->load(std::memory_order_seq_cst) != 0) epoch_->notify_all();
}

void WorkerPool::arm_deadline(rt::Watchdog& watchdog, i64 deadline_ns,
                              const platform::TeamLayout& layout,
                              PoolJob& job, u64 seq, const char* label) {
  if (deadline_ns <= 0) return;
  PoolJob::Entry& entry = job.entry_of(seq);
  const sched::LoopScheduler* sched = entry.sched;
  // The dump runs while the construct is live: it reads only atomics and
  // racy-by-design diagnostics — dock generations and the scheduler's pool
  // remainder, NOT stats(). The entry is disarmed before the flush that
  // could invalidate `layout`.
  rt::Watchdog::DumpFn dump = [this, &layout, sched, seq](std::FILE* f) {
    std::fprintf(f, "  scheduler: %.*s remaining=%lld\n",
                 static_cast<int>(sched->name().size()), sched->name().data(),
                 static_cast<long long>(sched->remaining()));
    for (int tid = 1; tid < layout.nthreads(); ++tid) {
      const Dock& dock =
          *slots_[static_cast<usize>(layout.core_of(tid))].dock;
      std::fprintf(
          f, "  core %d (tid %d): dock generation %llu (entry %llu)\n",
          layout.core_of(tid), tid,
          static_cast<unsigned long long>(
              dock.gen.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(seq));
    }
  };
  entry.watchdog_id = watchdog.arm(&entry.token, &entry.gate, seq,
                                    deadline_ns, label, std::move(dump));
}

std::exception_ptr WorkerPool::harvest(rt::Watchdog& watchdog,
                                       PoolJob::Entry& entry) {
  if (entry.watchdog_id != 0) {
    watchdog.disarm(entry.watchdog_id);
    entry.watchdog_id = 0;
  }
  // The gate's acquire wait ordered every participant's capture before
  // this read.
  return entry.token.error();
}

WorkerPool::Result WorkerPool::run_loop(Target target, i64 count,
                                        const sched::ScheduleSpec& spec,
                                        const rt::RangeBody& body,
                                        PoolJob& job,
                                        const CancelToken* lease_cancel,
                                        rt::Watchdog& watchdog) {
  AID_CHECK(count >= 0);
  const platform::TeamLayout& layout = *target.layout;
  const int n = layout.nthreads();
  AID_CHECK_MSG(n >= 1, "empty partition");
  // Cache-first: an idle same-shape instance is re-armed via reset()
  // instead of reallocated (sched/scheduler_cache.h).
  sched::LoopScheduler& sched =
      *target.cache->acquire(spec, count, layout, *target.topo);
  Result result;
  if (n == 1 || count == 0) {
    // Serial fast path: a single-core partition (or an empty loop) has
    // nothing to dispatch — the master participates alone, with no entry
    // ring traffic at all. The token lives on the stack (nobody else
    // reads it but a deadline's watchdog, disarmed before return).
    CancelToken token;
    token.bind(spec.cancel, lease_cancel);
    const u64 wd = spec.deadline_ns > 0
                       ? watchdog.arm(&token, nullptr, 0, spec.deadline_ns,
                                      "construct (serial)")
                       : 0;
    rt::run_chunks(sched, body, layout, /*tid=*/0, master_throttle(layout),
                   clock_, sf_clock_, &token);
    if (wd != 0) watchdog.disarm(wd);
    result.error = token.error();
  } else {
    // A chain of one. The ring reuse guard holds because every previous
    // construct on this job was flushed before its run returned.
    const u64 seq = job.stage(n, &sched, &body, /*dep_seq=*/0, spec.cancel,
                              lease_cancel);
    publish_entry(layout);
    // Armed after the publish, off the workers' critical path: arming
    // takes the watchdog mutex and builds the dump closure.
    arm_deadline(watchdog, spec.deadline_ns, layout, job, seq, "construct");
    run_entry(job, layout, seq, /*tid=*/0, master_throttle(layout));
    wait_entry(job, seq);
    result.error = harvest(watchdog, job.entry_of(seq));
  }
  result.stats = sched.stats();
  target.cache->release(&sched);
  return result;
}

WorkerPool::Result WorkerPool::run_chain(const pipeline::LoopChain& chain,
                                         PoolJob& job, Target target,
                                         const CancelToken* lease_cancel,
                                         rt::Watchdog& watchdog,
                                         ChainBoundary* boundary) {
  const auto& loops = chain.loops();
  const usize total = loops.size();
  AID_CHECK(total > 0);
  constexpr u64 kRing = PoolJob::kChainRing;
  // Chain entry k runs as sequence first + k: sequences stay consecutive
  // across the windows a boundary commit reopens.
  const u64 first = job.next_seq;
  usize pub = 0;        // entries published
  usize run = 0;        // entries the master has participated in
  usize flushed = 0;    // entries waited for
  usize harvested = 0;  // entries disarmed, harvested and returned
  Result result;

  // Entries below `limit` are complete: disarm each deadline, keep the
  // first error and return the scheduler lease (only the final entry's
  // stats are read, before its harvest). Runs in entry order — at the
  // ring-reuse point, before a boundary commit swaps the layout a
  // watchdog dump references, and at the chain end — so a long same-shape
  // chain re-arms at most kRing cached instances.
  const auto harvest_through = [&](usize limit) {
    for (; harvested < limit; ++harvested) {
      PoolJob::Entry& entry = job.entry_of(first + harvested);
      const std::exception_ptr error = harvest(watchdog, entry);
      if (!result.error) result.error = error;
      target.cache->release(entry.sched);
    }
  };
  const auto flush = [&] {
    for (; flushed < pub; ++flushed) wait_entry(job, first + flushed);
  };
  const auto commit_pending = [&] {
    return boundary != nullptr && boundary->pending();
  };

  while (run < total) {
    const bool commit = commit_pending();
    while (!commit && pub < total) {
      // Re-probe before every publish so a commit posted mid-batch stops
      // dispatch at the next entry, not after a ring-full batch.
      if (pub != run && commit_pending()) break;
      const u64 seq = first + pub;
      // Ring reuse guard: the slot's previous occupant must be complete.
      if (seq > kRing && !job.entry_of(seq).gate.complete(seq - kRing)) break;
      if (pub >= kRing) harvest_through(pub - kRing + 1);
      const auto& loop = loops[pub];
      // Dependency edges point at earlier entries; `completed` is
      // monotone, so an edge into an already-drained window is a no-op
      // wait rather than a stale one.
      job.stage(target.layout->nthreads(),
                target.cache->acquire(loop.spec, loop.count, *target.layout,
                                      *target.topo),
                &loop.body,
                loop.depends_on >= 0
                    ? first + static_cast<u64>(loop.depends_on)
                    : 0,
                loop.spec.cancel, lease_cancel);
      publish_entry(*target.layout);
      arm_deadline(watchdog, loop.spec.deadline_ns, *target.layout, job,
                   seq, "chain entry");
      ++pub;
    }
    if (run < pub) {
      // The master works through its own shares in chain order; workers
      // flow ahead through everything already published.
      run_entry(job, *target.layout, first + run, /*tid=*/0,
                master_throttle(*target.layout));
      ++run;
    } else if (commit) {
      // Every published entry has the master's participation: drain the
      // window, let the caller move the partition, continue on it.
      flush();
      harvest_through(pub);
      boundary->commit(target);
      open_window(*target.layout, job, job.next_seq);
    } else {
      // Ring full and nothing left for the master to run: wait for the
      // oldest in-flight entry (the workers are draining it).
      wait_entry(job, first + pub - kRing);
    }
  }

  // Chain-end flush: the only full join of the chain.
  flush();
  result.stats = job.entry_of(first + total - 1).sched->stats();
  harvest_through(total);
  return result;
}

}  // namespace aid::pool
