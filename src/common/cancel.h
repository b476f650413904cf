// Cooperative cancellation tokens — the failure channel of one construct.
//
// A CancelToken is a latch: once cancelled it stays cancelled (until its
// owner reset()s it between constructs), and the FIRST reason to arrive
// wins — later cancels are no-ops, so "user cancel raced the deadline"
// reports deterministically whichever actually landed first. The runtimes
// embed one token per in-flight ring slot (pool::PoolJob::Entry) and
// point every worker's ThreadContext at it; the
// schedulers observe it at each chunk-take boundary and poison their
// iteration pool on the first sighting, so cancel latency is one chunk.
//
// Tokens compose through up to two read-only parents (bind()): the slot
// token of a pool construct chains to the user's ScheduleSpec token and to
// the app lease's token, so AppHandle::cancel() reaches a loop that never
// named a token. cancelled() is the hot-path read: one relaxed load of own
// state plus one per bound parent, all on read-mostly lines.
//
// The token also carries the construct's first exception (capture(): an
// atomic claim over a std::exception_ptr). Workers never rethrow; the
// master harvests take_error() after the construct's gate closes — the
// gate's seq_cst completion protocol is what orders the worker's stash
// before the master's read.
#pragma once

#include <atomic>
#include <exception>

#include "common/types.h"

namespace aid {

enum class CancelReason : u32 {
  kNone = 0,
  kUser,        ///< CancelToken::cancel() / AppHandle::cancel()
  kDeadline,    ///< deadline watchdog expiry (rt/watchdog.h)
  kException,   ///< a loop body threw; the token holds the exception
  kDependency,  ///< a chain predecessor was cancelled (gate watermark)
};

[[nodiscard]] constexpr const char* to_string(CancelReason r) {
  switch (r) {
    case CancelReason::kNone: return "none";
    case CancelReason::kUser: return "user";
    case CancelReason::kDeadline: return "deadline";
    case CancelReason::kException: return "exception";
    case CancelReason::kDependency: return "dependency";
  }
  return "?";
}

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Request cancellation. Idempotent; the first reason wins. Thread-safe
  /// from any thread (including the watchdog's monitor thread).
  void cancel(CancelReason reason = CancelReason::kUser) {
    u32 expected = 0;
    state_.compare_exchange_strong(expected, static_cast<u32>(reason),
                                   std::memory_order_seq_cst,
                                   std::memory_order_relaxed);
  }

  /// Hot-path probe (every chunk-take boundary): own state, then bound
  /// parents. Relaxed loads — a cancel may be observed one chunk late,
  /// which is the documented cancel latency.
  [[nodiscard]] bool cancelled() const {
    if (state_.load(std::memory_order_relaxed) != 0) return true;
    if (parent_a_ != nullptr && parent_a_->cancelled()) return true;
    return parent_b_ != nullptr && parent_b_->cancelled();
  }

  /// First reason that landed (own state wins over parents, parent_a over
  /// parent_b). kNone while not cancelled.
  [[nodiscard]] CancelReason reason() const {
    const u32 s = state_.load(std::memory_order_acquire);
    if (s != 0) return static_cast<CancelReason>(s);
    if (parent_a_ != nullptr) {
      const CancelReason r = parent_a_->reason();
      if (r != CancelReason::kNone) return r;
    }
    if (parent_b_ != nullptr) return parent_b_->reason();
    return CancelReason::kNone;
  }

  /// Stash the construct's FIRST exception (atomic claim) and cancel with
  /// kException. Returns false when another participant already claimed
  /// the slot (that exception is the one reported; ours is dropped, the
  /// usual parallel-loop contract). The stash is published to the master
  /// by the construct gate's completion protocol, never read mid-flight.
  bool capture(std::exception_ptr e) {
    if (ex_claimed_.exchange(true, std::memory_order_acq_rel)) return false;
    ex_ = std::move(e);
    ex_ready_.store(true, std::memory_order_release);
    cancel(CancelReason::kException);
    return true;
  }

  /// Master-side harvest after the gate closed: the stashed exception, or
  /// nullptr. Does not clear — reset() re-arms the token for reuse.
  [[nodiscard]] std::exception_ptr error() const {
    if (!ex_ready_.load(std::memory_order_acquire)) return nullptr;
    return ex_;
  }

  /// Chain up to two read-only parents whose cancellation this token
  /// inherits. Owner-only, between constructs (ordered by the publish).
  void bind(const CancelToken* a, const CancelToken* b = nullptr) {
    parent_a_ = a;
    parent_b_ = b;
  }

  /// Re-arm for the next construct occupying this slot. Owner-only, while
  /// no participant can observe the token (ring-slot staging, pre-publish).
  void reset() {
    state_.store(0, std::memory_order_relaxed);
    ex_claimed_.store(false, std::memory_order_relaxed);
    ex_ready_.store(false, std::memory_order_relaxed);
    ex_ = nullptr;
    parent_a_ = nullptr;
    parent_b_ = nullptr;
  }

 private:
  std::atomic<u32> state_{0};  // CancelReason; 0 = live
  std::atomic<bool> ex_claimed_{false};
  std::atomic<bool> ex_ready_{false};
  std::exception_ptr ex_;
  const CancelToken* parent_a_ = nullptr;
  const CancelToken* parent_b_ = nullptr;
};

}  // namespace aid
