// Duty-cycle emulation of small cores on a symmetric host.
//
// The paper's Platform B *is itself* an emulated AMP: slow cores are real
// Xeon cores run at a reduced frequency and 87.5% duty cycle. We apply the
// same idea in software: after a worker bound to a (virtual) small core
// executes a block of iterations for t real nanoseconds, it busy-spins for
// an extra (slowdown − 1)·t, so the block appears to take slowdown·t.
//
// Crucially the spin happens *inside* the window bracketed by the worker's
// next() calls, so the AID sampling phase observes the emulated asymmetry
// exactly as it would observe real hardware asymmetry. The chunk loop
// (rt/chunk_loop.h) times the body alone: the take, the clock reads and any
// injected fault delay are not scaled (src/rt/README.md, "What emulation
// charges").
#pragma once

#include "common/spin_work.h"
#include "common/types.h"

namespace aid::rt {

class Throttle {
 public:
  /// `slowdown` >= 1: the factor by which this worker's core is slower than
  /// the fastest core type (fastest speed / this core's speed).
  explicit Throttle(double slowdown = 1.0, bool enabled = true)
      : slowdown_(slowdown), enabled_(enabled && slowdown > 1.0) {}

  /// Charge the duty-cycle penalty for a block that took `elapsed_ns` of
  /// real execution.
  void pay(Nanos elapsed_ns) const {
    if (!enabled_ || elapsed_ns <= 0) return;
    spin_for_nanos(
        static_cast<Nanos>(static_cast<double>(elapsed_ns) * (slowdown_ - 1.0)));
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] double slowdown() const { return slowdown_; }

 private:
  double slowdown_;
  bool enabled_;
};

}  // namespace aid::rt
