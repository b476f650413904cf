// Fault-injection harness for the fork/join runtimes.
//
// Failure-domain hardening is only testable if failures can be provoked on
// demand, deterministically, inside the runtime's own hot paths. This
// subsystem injects four failure shapes at the two seams the runtimes
// expose for it:
//
//   * the worker body shim (rt/chunk_loop.cc, the dispatch engine's one
//     chunk loop):
//     `before_chunk(tid, begin, end)` runs before each chunk's body and can
//     throw (exception-propagation tests) or sleep (deadline/watchdog
//     tests);
//   * the completion gate's wake path (common/fault_hook.h): a drop-wake
//     clause suppresses gate notifies, modeling lost futex wakes.
//
// The active plan comes from the AID_FAULT environment variable (grammar
// below and in src/fault/README.md) or from install() in tests. Production
// cost: ONE acquire load per participate() — `enabled()` — and one
// predictable branch per chunk; no out-of-line call unless a plan is
// installed.
//
// AID_FAULT grammar — `;`-separated clauses:
//   throw@I        throw std::runtime_error from the chunk containing
//                  canonical iteration I (one-shot per install)
//   stall@I:MS     sleep MS milliseconds before the chunk containing
//                  iteration I (one-shot per install)
//   delay@T:US     sleep US microseconds before EVERY chunk worker tid T
//                  executes (persistent)
//   drop-wake      suppress the next gate notify (lost-wake model);
//   drop-wake@N    suppress the next N notifies
// Example: AID_FAULT="delay@2:50;throw@1000"
#pragma once

#include <atomic>
#include <optional>
#include <string_view>

#include "common/types.h"

namespace aid::fault {

/// A parsed AID_FAULT plan. Unset clauses keep their sentinel defaults.
struct FaultPlan {
  i64 throw_at = -1;   ///< canonical iteration to throw at (-1 = none)
  i64 stall_at = -1;   ///< canonical iteration to stall at (-1 = none)
  i64 stall_ms = 0;    ///< stall duration
  int delay_tid = -1;  ///< team-local tid to slow down (-1 = none)
  i64 delay_us = 0;    ///< per-chunk delay for that tid
  int drop_wakes = 0;  ///< number of gate notifies to suppress

  [[nodiscard]] bool any() const {
    return throw_at >= 0 || stall_at >= 0 || delay_tid >= 0 ||
           drop_wakes > 0;
  }
};

/// Parse the AID_FAULT grammar. Returns nullopt (and the caller warns) on
/// any malformed clause — a fault plan half-applied is worse than none.
[[nodiscard]] std::optional<FaultPlan> parse(std::string_view text);

/// Opaque active-plan pointer; null when no plan is installed. The one
/// production-path read. (Type-erased so this header stays dependency-free;
/// only fault.cc dereferences it.)
extern std::atomic<const void*> g_active;

/// Is any fault plan installed? The runtimes latch this once per
/// participate() and only then pay the per-chunk shim call.
[[nodiscard]] inline bool enabled() {
  return g_active.load(std::memory_order_acquire) != nullptr;
}

/// Install `plan` as the process-global active plan (replacing any previous
/// one) and arm its one-shot clauses. Only valid while no construct is in
/// flight — tests install between loops.
void install(const FaultPlan& plan);

/// Remove the active plan and the drop-wake hook.
void clear();

/// Parse AID_FAULT and install the result, once per process (subsequent
/// calls are a no-op, including after clear()). The runtimes call this at
/// team/pool construction; malformed values warn to stderr and install
/// nothing.
void init_from_env();

/// The body-shim hook: called before each chunk [begin, end) that worker
/// `tid` is about to execute. Sleeps for delay/stall clauses; throws
/// std::runtime_error for an armed throw clause. Out-of-line — callers
/// gate it behind enabled().
void before_chunk(int tid, i64 begin, i64 end);

}  // namespace aid::fault
