#include "pool/worker_pool.h"

#include "common/affinity.h"
#include "common/check.h"
#include "common/env.h"
#include "common/spin_wait.h"
#include "fault/fault.h"

namespace aid::pool {

WorkerPool::WorkerPool(const platform::Platform& platform, Options options)
    : platform_(platform),
      options_(options),
      sf_clock_(options.sf_cpu_time
                    ? static_cast<const TimeSource*>(&cpu_clock_)
                    : static_cast<const TimeSource*>(&clock_)),
      slots_(static_cast<usize>(platform_.num_cores())),
      spin_budget_(static_cast<i32>(env::get_int_at_least(
          "AID_FORKJOIN_SPIN", default_spin_budget(platform_.num_cores()),
          0))),
      yield_budget_(static_cast<i32>(env::get_int_at_least(
          "AID_FORKJOIN_YIELD", default_yield_budget(platform_.num_cores()),
          0))) {
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
  // Cold path, mirroring Team's shutdown: bump every spawned dock and
  // broadcast on the shared epoch. Workers check shutting_down_ before
  // touching the window/entry fields. The PoolManager guarantees no loop
  // is in flight.
  shutting_down_.store(true, std::memory_order_seq_cst);
  for (auto& slot : slots_) {
    if (!slot.spawned) continue;
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
  slot.spawned = true;
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

  // Same Dekker pairing as Team::wait_for_dispatch — register as sleeper,
  // re-check the dock, then sleep on the shared epoch. With several
  // masters the epoch advances on every dispatch by anybody, so a worker
  // may wake for a job that is not its own; it simply re-checks its dock
  // and sleeps again (spurious wakes are correctness-neutral).
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
    const int tid = dock.tid;
    const u64 base_gen = dock.base_gen;
    const u64 base_seq = dock.base_seq;
    for (u64 gen = seen + 1; gen <= g; ++gen) {
      const u64 seq = base_seq + (gen - base_gen);
      PoolJob::Entry& entry = job.entry_of(seq);
      if (entry.dep_seq != 0) {
        wait_entry(job, entry.dep_seq);
        // A cancelled predecessor cancels its dependents (see
        // rt/team.cc worker_main for the full argument).
        if (job.entry_of(entry.dep_seq).gate.was_cancelled(entry.dep_seq))
          entry.token.cancel(CancelReason::kDependency);
      }
      participate(*job.layout, *entry.sched, *entry.body, tid,
                  slot.throttle, &entry.token);
      entry.gate.check_in(seq, entry.token.cancelled());
    }
    seen = g;
  }
}

void WorkerPool::participate(const platform::TeamLayout& layout,
                             sched::LoopScheduler& sched,
                             const rt::RangeBody& body, int tid,
                             const rt::Throttle& throttle,
                             CancelToken* token) {
  rt::run_chunks(sched, body, layout, tid, throttle, clock_, sf_clock_, token);
}

void WorkerPool::open_window(const platform::TeamLayout& layout, PoolJob& job,
                             u64 seq0) {
  if (options_.bind_threads) try_bind_to_core(layout.core_of(0));
  job.layout = &layout;
  for (int tid = 1; tid < layout.nthreads(); ++tid) {
    CoreSlot& slot = slots_[static_cast<usize>(layout.core_of(tid))];
    Dock& dock = *slot.dock;
    dock.job = &job;
    dock.tid = tid;
    dock.base_gen = dock.gen.load(std::memory_order_relaxed) + 1;
    dock.base_seq = seq0;
  }
}

void WorkerPool::publish_entry(const platform::TeamLayout& layout) {
  const int n = layout.nthreads();
  if (n <= 1) return;  // single-core partition: the master runs alone
  for (int tid = 1; tid < n; ++tid) {
    CoreSlot& slot = slots_[static_cast<usize>(layout.core_of(tid))];
    Dock& dock = *slot.dock;
    dock.gen.store(dock.gen.load(std::memory_order_relaxed) + 1,
                   std::memory_order_seq_cst);
    // Lazy spawn: the thread starts after the dock is published, so its
    // first acquire read already sees the window (thread creation orders
    // the prior stores).
    if (!slot.spawned) spawn(slot, layout.core_of(tid));
  }
  epoch_->fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_->load(std::memory_order_seq_cst) != 0) epoch_->notify_all();
}

void WorkerPool::run_entry_master(const platform::TeamLayout& layout,
                                  PoolJob& job, u64 seq) {
  PoolJob::Entry& entry = job.entry_of(seq);
  if (entry.dep_seq != 0) {
    wait_entry(job, entry.dep_seq);
    if (job.entry_of(entry.dep_seq).gate.was_cancelled(entry.dep_seq))
      entry.token.cancel(CancelReason::kDependency);
  }
  participate(layout, *entry.sched, *entry.body, /*tid=*/0,
              slots_[static_cast<usize>(layout.core_of(0))].throttle,
              &entry.token);
  entry.gate.check_in(seq, entry.token.cancelled());
}

std::exception_ptr WorkerPool::run_loop(
    const platform::TeamLayout& layout, i64 count,
    sched::LoopScheduler& sched, const rt::RangeBody& body, PoolJob& job,
    const CancelToken* parent_a, const CancelToken* parent_b,
    rt::Watchdog* watchdog, i64 deadline_ns) {
  AID_CHECK(count >= 0);
  const int n = layout.nthreads();
  AID_CHECK_MSG(n >= 1, "empty partition");

  if (n == 1 || count == 0) {
    // Serial fast path: a single-core partition (or an empty loop) has
    // nothing to dispatch — the master participates alone, with no entry
    // ring traffic at all. (The dispatching path binds the master in
    // open_window instead.)
    if (options_.bind_threads) try_bind_to_core(layout.core_of(0));
    CancelToken token;
    token.bind(parent_a, parent_b);
    u64 wd = 0;
    if (watchdog != nullptr && deadline_ns > 0)
      wd = watchdog->arm(&token, nullptr, 0, deadline_ns,
                         "pool construct (serial)");
    participate(layout, sched, body, /*tid=*/0,
                slots_[static_cast<usize>(layout.core_of(0))].throttle,
                &token);
    if (wd != 0) watchdog->disarm(wd);
    return token.error();
  }

  // A one-entry window. The ring reuse guard holds because every previous
  // construct on this job was flushed before its run returned.
  const u64 seq = job.next_seq++;
  PoolJob::Entry& entry = job.entry_of(seq);
  AID_DCHECK(seq <= PoolJob::kChainRing ||
             entry.gate.complete(seq - PoolJob::kChainRing));
  entry.sched = &sched;
  entry.body = &body;
  entry.dep_seq = 0;
  entry.token.reset();
  entry.token.bind(parent_a, parent_b);
  entry.gate.arm(n, seq);
  open_window(layout, job, seq);
  u64 wd = 0;
  if (watchdog != nullptr && deadline_ns > 0)
    wd = watchdog->arm(&entry.token, &entry.gate, seq, deadline_ns,
                       "pool construct",
                       make_watchdog_dump(layout, sched, seq));
  publish_entry(layout);
  run_entry_master(layout, job, seq);
  wait_entry(job, seq);
  if (wd != 0) watchdog->disarm(wd);
  return entry.token.error();
}

rt::Watchdog::DumpFn WorkerPool::make_watchdog_dump(
    const platform::TeamLayout& layout, const sched::LoopScheduler& sched,
    u64 seq) const {
  return [this, &layout, &sched, seq](std::FILE* f) {
    std::fprintf(f, "  scheduler: %.*s remaining=%lld\n",
                 static_cast<int>(sched.name().size()), sched.name().data(),
                 static_cast<long long>(sched.remaining()));
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
}

}  // namespace aid::pool
