#include "rt/team.h"

#include <exception>

#include "common/affinity.h"
#include "common/check.h"
#include "common/env.h"
#include "common/spin_wait.h"
#include "fault/fault.h"
#include "pipeline/loop_chain.h"

namespace aid::rt {

// The cache retains this many idle instances per shape precisely so a
// chain can hold a full ring of same-shape constructs in flight; a ring
// deepened past the retention cap would silently reintroduce steady-state
// construction misses (and break the cache-determinism tests).
static_assert(Team::kChainRing <= sched::SchedulerCache::kInstancesPerShape,
              "chain-ring depth exceeds SchedulerCache per-shape retention");

Team::Team(const platform::Platform& platform, int nthreads,
           platform::Mapping mapping, bool emulate_amp, bool bind_threads,
           bool sf_cpu_time)
    : platform_(platform),
      layout_(platform_, nthreads > 0 ? nthreads : platform_.num_cores(),
              mapping),
      shard_topo_(sched::ShardTopology::from_layout(layout_)),
      sf_clock_(sf_cpu_time ? static_cast<const TimeSource*>(&cpu_clock_)
                            : static_cast<const TimeSource*>(&clock_)),
      docks_(static_cast<usize>(layout_.nthreads() - 1)),
      spin_budget_(static_cast<i32>(env::get_int_at_least(
          "AID_FORKJOIN_SPIN", default_spin_budget(layout_.nthreads()), 0))),
      yield_budget_(static_cast<i32>(env::get_int_at_least(
          "AID_FORKJOIN_YIELD", default_yield_budget(layout_.nthreads()),
          0))) {
  const double max_speed =
      platform_.speed_of_type(platform_.num_core_types() - 1);
  throttles_.reserve(static_cast<usize>(layout_.nthreads()));
  for (int tid = 0; tid < layout_.nthreads(); ++tid)
    throttles_.emplace_back(max_speed / layout_.speed_of(tid), emulate_amp);

  // Arm the fault-injection plan (if AID_FAULT is set) before any worker
  // can execute a body shim; once-per-process, no-op thereafter.
  fault::init_from_env();

  if (bind_threads) try_bind_to_core(layout_.core_of(0));

  workers_.reserve(static_cast<usize>(layout_.nthreads() - 1));
  for (int tid = 1; tid < layout_.nthreads(); ++tid) {
    workers_.emplace_back([this, tid, bind_threads] {
      if (bind_threads) try_bind_to_core(layout_.core_of(tid));
      worker_main(tid);
    });
  }
}

Team::~Team() {
  // Shutdown is the cold path: bump every dock and broadcast on the shared
  // epoch unconditionally. Workers check shutting_down_ before touching the
  // ring.
  shutting_down_.store(true, std::memory_order_seq_cst);
  ++job_generation_;
  for (auto& dock : docks_)
    dock->gen.store(job_generation_, std::memory_order_seq_cst);
  epoch_->store(job_generation_, std::memory_order_seq_cst);
  epoch_->notify_all();
  // jthread joins on destruction.
}

u64 Team::wait_for_dispatch(Dock& dock, u64 seen) {
  u64 g = dock.gen.load(std::memory_order_acquire);
  if (g != seen) return g;

  // Spin (polling only this worker's own cache line), then yield (donate
  // the CPU to the master on oversubscribed hosts rather than paying a
  // futex sleep the master must then wake).
  if (spin_then_yield(
          [&] {
            g = dock.gen.load(std::memory_order_acquire);
            return g != seen;
          },
          spin_budget_, yield_budget_))
    return g;

  // Block on the shared epoch (one master notify_all wakes the team).
  // The sleepers_ increment must precede the final generation re-check so
  // it pairs with the master's publish-then-check-sleepers sequence
  // (Dekker: either we see the new generation here, or the master sees our
  // registration and pays the wake syscall).
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

void Team::worker_main(int tid) {
  Dock& dock = *docks_[static_cast<usize>(tid - 1)];
  u64 seen = 0;
  for (;;) {
    const u64 g = wait_for_dispatch(dock, seen);
    if (shutting_down_.load(std::memory_order_acquire)) return;
    // The dock may have advanced several generations while this worker was
    // draining earlier ones (a chain in flight): process every published
    // construct in order. The acquire read of `g` makes all slots staged up
    // to generation g visible.
    for (u64 gen = seen + 1; gen <= g; ++gen) {
      ChainSlot& slot = slot_of(gen);
      if (slot.dep_gen != 0) {
        wait_generation(slot.dep_gen);
        // A cancelled predecessor cancels its dependents: fold the
        // dependency gate's cancelled watermark into this construct's
        // token (first sighting wins; every sibling does the same).
        if (slot_of(slot.dep_gen).gate.was_cancelled(slot.dep_gen))
          slot.token.cancel(CancelReason::kDependency);
      }
      participate(tid, *slot.sched, *slot.body, &slot.token);
      slot.gate.check_in(gen, slot.token.cancelled());
    }
    seen = g;
  }
}

void Team::participate(int tid, sched::LoopScheduler& sched,
                       const RangeBody& body, CancelToken* token) {
  run_chunks(sched, body, layout_, tid, *throttles_[static_cast<usize>(tid)],
             clock_, sf_clock_, token);
}

u64 Team::publish(sched::LoopScheduler* sched, const RangeBody* body,
                  u64 dep_gen, CancelToken* external) {
  const u64 gen = job_generation_ + 1;
  ChainSlot& slot = slot_of(gen);
  // Ring reuse guard (callers enforce): the previous occupant, generation
  // gen - kChainRing, has completed, so nobody reads the old fields.
  AID_DCHECK(gen <= kChainRing || slot.gate.complete(gen - kChainRing));
  slot.sched = sched;
  slot.body = body;
  slot.dep_gen = dep_gen;
  // Re-own the slot token for the new occupant (the caller harvested any
  // error before reuse) and chain it to the caller's external token.
  slot.token.reset();
  slot.token.bind(external);
  slot.gate.arm(layout_.nthreads(), gen);
  ++job_generation_;
  // Publish per-dock generations first, then the shared epoch, then check
  // for sleepers: pairs with wait_for_dispatch's register-then-re-check
  // (Dekker), so the single notify_all syscall is paid only when some
  // worker actually reached the futex.
  for (auto& dock : docks_)
    dock->gen.store(job_generation_, std::memory_order_seq_cst);
  epoch_->store(job_generation_, std::memory_order_seq_cst);
  if (sleepers_->load(std::memory_order_seq_cst) != 0) epoch_->notify_all();
  return gen;
}

u64 Team::maybe_arm_watchdog(const sched::ScheduleSpec& spec,
                             ChainSlot* slot, u64 gen,
                             sched::LoopScheduler* sched,
                             CancelToken* serial_token) {
  if (spec.deadline_ns <= 0) return 0;
  if (slot == nullptr) {
    // Serial construct: no gate to diagnose — expiry just cancels, and the
    // master IS the only participant, so a wedge is its own caller's bug.
    return watchdog_.arm(serial_token, nullptr, 0, spec.deadline_ns,
                         "team construct (serial)");
  }
  // The dump section reads only atomics / racy-by-design diagnostics:
  // dock generations and the scheduler's pool remainder — NOT stats(),
  // which touches plain fields a live scheduler still writes.
  Watchdog::DumpFn dump = [this, sched, gen](std::FILE* f) {
    std::fprintf(f, "  scheduler: %.*s remaining=%lld\n",
                 static_cast<int>(sched->name().size()),
                 sched->name().data(),
                 static_cast<long long>(sched->remaining()));
    for (usize i = 0; i < docks_.size(); ++i)
      std::fprintf(
          f, "  worker %d: dock generation %llu (wedged construct %llu)\n",
          static_cast<int>(i) + 1,
          static_cast<unsigned long long>(
              docks_[i]->gen.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(gen));
  };
  return watchdog_.arm(&slot->token, &slot->gate, gen, spec.deadline_ns,
                       "team construct", std::move(dump));
}

void Team::run_loop(i64 count, const sched::ScheduleSpec& spec,
                    const RangeBody& body) {
  AID_CHECK(count >= 0);
  AID_CHECK_MSG(!in_loop_.exchange(true),
                "nested/concurrent run_loop is not supported");

  if (count == 0) {
    // Empty loop: no iterations, so no scheduler, no dispatch, no
    // barrier — the construct costs only this guard.
    last_stats_ = sched::SchedulerStats{};
    in_loop_.store(false, std::memory_order_release);
    return;
  }

  // The construct path is cache-first: an idle same-shape instance is
  // re-armed via reset() instead of reallocating scheduler + shard pool
  // per loop (sched/scheduler_cache.h; data-parallel apps run the same
  // loop shapes thousands of times).
  sched::LoopScheduler* sched =
      sched_cache_.acquire(spec, count, layout_, shard_topo_);

  std::exception_ptr error;
  if (docks_.empty()) {
    // Serial fast path: a one-thread team has nothing to dispatch — run
    // the master's participation with zero synchronization. The token
    // lives on the stack (nobody else reads it).
    CancelToken token;
    token.bind(spec.cancel);
    const u64 wd = maybe_arm_watchdog(spec, nullptr, 0, sched, &token);
    participate(/*tid=*/0, *sched, body, &token);
    if (wd != 0) watchdog_.disarm(wd);
    error = token.error();
  } else {
    // A run_loop is a chain of one: publish, participate as team member 0
    // (as in libgomp), check into the countdown, and flush immediately.
    // The ring reuse guard holds because every previous construct was
    // flushed before its run_loop/run_chain returned.
    const u64 gen = publish(sched, &body, /*dep_gen=*/0, spec.cancel);
    ChainSlot& slot = slot_of(gen);
    const u64 wd = maybe_arm_watchdog(spec, &slot, gen, sched, nullptr);
    participate(/*tid=*/0, *sched, body, &slot.token);
    slot.gate.check_in(gen, slot.token.cancelled());
    wait_generation(gen);
    if (wd != 0) watchdog_.disarm(wd);
    // The gate's acquire wait ordered every worker's capture before this
    // read: safe to harvest the first (and only stashed) exception now.
    error = slot.token.error();
  }

  // Cleanup FIRST, rethrow LAST: the lease goes back to the cache and the
  // reentrancy guard clears whether or not the construct failed, so the
  // team stays usable after a thrown body (the acceptance criterion).
  last_stats_ = sched->stats();
  sched_cache_.release(sched);
  in_loop_.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

void Team::run_chain(const pipeline::LoopChain& chain) {
  const auto& loops = chain.loops();
  if (loops.empty()) return;
  AID_CHECK_MSG(!in_loop_.exchange(true),
                "nested/concurrent run_chain is not supported");

  if (docks_.empty()) {
    // One-thread team: the chain degenerates to running each loop in
    // order; every dependency is trivially satisfied — except that a
    // cancelled predecessor must still cancel its dependents, and an
    // entry's exception must cancel downstream entries yet only rethrow
    // after the whole chain wound down (same contract as the ring path).
    std::exception_ptr chain_error;
    std::vector<char> entry_cancelled(loops.size(), 0);
    for (usize k = 0; k < loops.size(); ++k) {
      const auto& loop = loops[k];
      sched::LoopScheduler* sched =
          sched_cache_.acquire(loop.spec, loop.count, layout_, shard_topo_);
      CancelToken token;
      token.bind(loop.spec.cancel);
      if (loop.depends_on >= 0 &&
          entry_cancelled[static_cast<usize>(loop.depends_on)] != 0)
        token.cancel(CancelReason::kDependency);
      const u64 wd = maybe_arm_watchdog(loop.spec, nullptr, 0, sched, &token);
      participate(/*tid=*/0, *sched, loop.body, &token);
      if (wd != 0) watchdog_.disarm(wd);
      entry_cancelled[k] = token.cancelled() ? 1 : 0;
      if (!chain_error) chain_error = token.error();
      last_stats_ = sched->stats();
      sched_cache_.release(sched);
    }
    in_loop_.store(false, std::memory_order_release);
    if (chain_error) std::rethrow_exception(chain_error);
    return;
  }

  // Chain entry k runs as generation base + 1 + k. The master is both the
  // publisher and team member 0: it stages loops into the ring as long as
  // slots are free (so workers flow ahead without it), and otherwise works
  // through its own shares in chain order. It blocks only when the ring is
  // full with constructs it has already participated in — and at the
  // chain-end flush.
  const u64 base = job_generation_;
  const usize total = loops.size();
  // Cache leases for the chain's schedulers: a ring slot's scheduler must
  // stay alive until the slot's flush, so every lease is released only
  // after the chain-end flush (and the final stats read).
  std::vector<sched::LoopScheduler*> scheds(total, nullptr);
  std::vector<u64> wd_ids(total, 0);
  // First error anywhere in the chain, rethrown after the chain wound
  // down. MUST be harvested from a slot's token before publish() reuses
  // (and resets) that slot — i.e. at the ring-reuse point, and after the
  // final flush for the last ring-depth entries.
  std::exception_ptr chain_error;
  const auto harvest = [&chain_error](CancelToken& token) {
    if (!chain_error) chain_error = token.error();
  };
  usize pub = 0;  // loops published so far
  usize run = 0;  // loops the master has participated in
  while (run < total) {
    while (pub < total) {
      const u64 gen = base + 1 + pub;
      // Ring reuse guard: the slot's previous occupant must be complete.
      if (gen > kChainRing && !slot_of(gen).gate.complete(gen - kChainRing))
        break;
      // The guard just proved chain entry pub - kChainRing fully
      // completed: release its lease now (stats are read from the final
      // entry only), so a long same-shape chain re-arms at most
      // kChainRing instances instead of defeating the cache.
      if (pub >= kChainRing) {
        const usize prev = pub - kChainRing;
        if (wd_ids[prev] != 0) watchdog_.disarm(wd_ids[prev]);
        harvest(slot_of(gen).token);  // same slot, previous occupant
        sched_cache_.release(scheds[prev]);
        scheds[prev] = nullptr;
      }
      const auto& loop = loops[pub];
      scheds[pub] =
          sched_cache_.acquire(loop.spec, loop.count, layout_, shard_topo_);
      const u64 dep =
          loop.depends_on >= 0
              ? base + 1 + static_cast<u64>(loop.depends_on)
              : 0;
      publish(scheds[pub], &loop.body, dep, loop.spec.cancel);
      wd_ids[pub] = maybe_arm_watchdog(loop.spec, &slot_of(gen), gen,
                                       scheds[pub], nullptr);
      ++pub;
    }
    if (run < pub) {
      const u64 gen = base + 1 + run;
      ChainSlot& slot = slot_of(gen);
      if (slot.dep_gen != 0) {
        wait_generation(slot.dep_gen);
        // Mirror worker_main: a cancelled predecessor cancels dependents.
        if (slot_of(slot.dep_gen).gate.was_cancelled(slot.dep_gen))
          slot.token.cancel(CancelReason::kDependency);
      }
      participate(/*tid=*/0, *slot.sched, loops[run].body, &slot.token);
      slot.gate.check_in(gen, slot.token.cancelled());
      ++run;
    } else {
      // Ring full, master has participated everywhere it can: wait for the
      // occupant blocking the next publish (workers are draining it).
      wait_generation(base + 1 + pub - kChainRing);
    }
  }

  // The chain-end flush: the only full barrier in the chain.
  for (usize k = 0; k < total; ++k) wait_generation(base + 1 + k);
  // Disarm + harvest the entries whose slots were never reused (the final
  // ring-depth window); everything earlier was harvested at reuse.
  for (usize k = total >= kChainRing ? total - kChainRing : 0; k < total;
       ++k) {
    if (wd_ids[k] != 0) watchdog_.disarm(wd_ids[k]);
    harvest(slot_of(base + 1 + k).token);
  }

  last_stats_ = scheds[total - 1]->stats();
  for (sched::LoopScheduler* s : scheds)
    if (s != nullptr) sched_cache_.release(s);
  in_loop_.store(false, std::memory_order_release);
  if (chain_error) std::rethrow_exception(chain_error);
}

}  // namespace aid::rt
