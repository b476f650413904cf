// Completion gate for one in-flight construct slot.
//
// The dispatch engine's entry ring (pool/worker_pool.h PoolJob::Entry)
// and the GOMP work-share ring (rt/gomp_compat.cc) track per-construct
// completion with the same three-word protocol; this header is its single
// home so the subtle parts — the monotone watermark and the Dekker-paired
// wake — cannot drift apart between the two rings.
//
//  * `unfinished` — countdown over all participants of the construct
//    (master included). arm() loads it, check_in() decrements.
//  * `completed`  — monotone watermark: the tag (dispatch generation /
//    entry sequence) of the slot's last fully completed occupant, stored
//    by the final check_in. Monotonicity is what makes a wait on an
//    already-reused ring slot return immediately instead of latching
//    onto the new occupant's countdown (the classic ring-ABA deadlock);
//    callers must therefore hand out strictly increasing tags.
//  * `waiters`    — Dekker registration: wait() registers, then
//    re-checks, then sleeps; the finisher stores the watermark, then
//    checks registration, so either the waiter sees the new watermark or
//    the finisher sees the waiter and pays the notify_all.
//  * `cancelled`  — a second monotone watermark: the highest tag whose
//    occupant was cancelled (user/deadline/exception). Ring dependents
//    read it through was_cancelled(tag) AFTER waiting on `completed` —
//    per-slot token state cannot be trusted across ring reuse, but a
//    monotone watermark keyed by the same tags can, by the same ABA
//    argument as `completed`.
//
// Each word is cache-line padded: check_in traffic (every participant,
// every construct) must not false-share with the spin loops of waiters.
#pragma once

#include <atomic>

#include "common/check.h"
#include "common/fault_hook.h"
#include "common/padded.h"
#include "common/spin_wait.h"
#include "common/types.h"

namespace aid {

class CompletionGate {
 public:
  CompletionGate() = default;
  CompletionGate(const CompletionGate&) = delete;
  CompletionGate& operator=(const CompletionGate&) = delete;

  /// Longest cpu_relax burst between two polls of the watermark.
  static constexpr i32 kWaitMaxBurst = 8;

  /// Destruction-ordering guard (debug builds): an armed gate must have
  /// fully closed before its owner destructs — a wedged construct must
  /// fail loudly here instead of letting a worker check into freed memory.
  ~CompletionGate() { AID_DCHECK(armed_tag_ == 0 || complete(armed_tag_)); }

  /// Arm for the construct tagged `tag` with `participants` members. Only
  /// valid while no participant of the previous occupant is outstanding
  /// (ring reuse guard — the caller checks `complete(previous tag)`
  /// first; debug builds re-assert it here so a missed flush fails loudly
  /// at the reuse site instead of hanging).
  void arm(int participants, u64 tag) {
    AID_DCHECK(armed_tag_ == 0 || complete(armed_tag_));
    armed_tag_ = tag;
    unfinished_->store(participants, std::memory_order_relaxed);
  }

  /// One participant's completion of the construct tagged `tag`. The last
  /// arrival publishes the watermark and wakes registered waiters.
  void check_in(u64 tag) {
    if (unfinished_->fetch_sub(1, std::memory_order_seq_cst) == 1)
      publish(tag);
  }

  /// Completion that also records construct cancellation. The cancelled
  /// mark precedes this participant's countdown decrement in seq_cst
  /// order, so any dependent that waited on `completed` for `tag` is
  /// guaranteed to observe it.
  void check_in(u64 tag, bool cancelled) {
    if (cancelled) mark_cancelled(tag);
    check_in(tag);
  }

  /// Record that `tag`'s occupant was cancelled (monotone CAS-max; any
  /// participant may call it, before its check_in).
  void mark_cancelled(u64 tag) {
    u64 cur = cancelled_->load(std::memory_order_relaxed);
    while (cur < tag &&
           !cancelled_->compare_exchange_weak(cur, tag,
                                              std::memory_order_seq_cst,
                                              std::memory_order_relaxed)) {
    }
  }

  /// Was the occupant tagged `tag` cancelled? Only meaningful after
  /// complete(tag) — dependents call it after their dependency wait.
  /// EXACT match, deliberately: tags are unique per slot, so equality can
  /// never misread a reused slot (no false positives), and a stale read
  /// (the watermark already advanced to a cancelled successor before a
  /// straggler asked) is collectively harmless — successors of tag can
  /// only be marked by a participant that already performed THIS
  /// dependency check while the watermark still read `tag`, folded the
  /// cancellation into the dependent's shared token, and thereby reaches
  /// the straggler through the token instead.
  [[nodiscard]] bool was_cancelled(u64 tag) const {
    return cancelled_->load(std::memory_order_seq_cst) == tag;
  }

  /// Single-producer form: store the watermark for `tag` directly, no
  /// countdown. The GOMP work-share ring uses a gate this way as its
  /// *publication* channel — the one staging thread publishes, every team
  /// member waits — keeping the monotone-watermark + Dekker-wake protocol
  /// in one place. The seq_cst store orders all plain staging stores
  /// before it against a waiter's watermark read.
  void publish(u64 tag) {
    completed_->store(tag, std::memory_order_seq_cst);
    if (waiters_->load(std::memory_order_seq_cst) != 0) {
      // Fault seam (common/fault_hook.h): a drop-wake clause suppresses
      // this one notify, modeling a lost futex wake. The watermark store
      // above always happens — only the wake is lost, which is exactly
      // what the watchdog's kick() recovery must survive.
      if (fault_hook::consume_drop_wake()) [[unlikely]]
        return;
      completed_->notify_all();
    }
  }

  /// Has the construct tagged `tag` fully completed? (>= because the
  /// watermark is monotone: a successor tag implies our completion.)
  [[nodiscard]] bool complete(u64 tag) const {
    return completed_->load(std::memory_order_acquire) >= tag;
  }

  /// Spin-then-yield-then-block until `complete(tag)` (budgets per
  /// common/spin_wait.h). The watermark is written once per construct, so
  /// polling it often costs no coherence traffic; bursts are capped at
  /// kWaitMaxBurst pauses so the wait notices the completion within
  /// ~0.2 µs instead of on a ~1.2 µs grid whose phase decides a join's
  /// cost.
  void wait(u64 tag, i32 spin_budget, i32 yield_budget) {
    std::atomic<u64>& completed = *completed_;
    if (completed.load(std::memory_order_acquire) >= tag) return;

    if (spin_then_yield(
            [&] { return completed.load(std::memory_order_acquire) >= tag; },
            spin_budget, yield_budget, kWaitMaxBurst))
      return;

    waiters_->fetch_add(1, std::memory_order_seq_cst);
    for (;;) {
      const u64 c = completed.load(std::memory_order_seq_cst);
      if (c >= tag) break;
      completed.wait(c, std::memory_order_seq_cst);
    }
    waiters_->fetch_sub(1, std::memory_order_relaxed);
  }

  /// Wake every blocked waiter so it re-checks the watermark. Recovery
  /// valve for a lost wake (the watchdog calls it after its grace period);
  /// correctness never depends on it — a spurious kick is a re-check.
  void kick() { completed_->notify_all(); }

  // Diagnostic snapshot reads (watchdog dump): racy by design, relaxed.
  [[nodiscard]] int unfinished() const {
    return unfinished_->load(std::memory_order_relaxed);
  }
  [[nodiscard]] u64 watermark() const {
    return completed_->load(std::memory_order_relaxed);
  }

 private:
  Padded<std::atomic<int>> unfinished_;
  Padded<std::atomic<u64>> completed_;
  Padded<std::atomic<int>> waiters_;
  Padded<std::atomic<u64>> cancelled_;
  /// Tag of the last arm() (0 = never armed). Master-only plain field,
  /// ordered by the same publish stores that order the other slot fields;
  /// exists purely for the debug flush assertions above.
  u64 armed_tag_ = 0;
};

}  // namespace aid
