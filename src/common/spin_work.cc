#include "common/spin_work.h"

#include <chrono>

namespace aid {
namespace {

// Dependent multiply-add chain: the result of each step feeds the next, so
// neither the compiler nor an out-of-order core can collapse the loop.
u64 chain(u64 x, u64 rounds) noexcept {
  u64 acc = x | 1;
  for (u64 i = 0; i < rounds; ++i) {
    acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
    acc ^= acc >> 29;
  }
  return acc;
}

// Keeps `v` observable, so the chain computing it cannot be deleted, without
// writing memory: an empty asm that claims to read the register. A shared
// sink would make every spinning thread bounce one cache line per call,
// and the throttle would spin longer than it charges.
inline void keep(u64 v) noexcept { asm volatile("" : : "r"(v)); }

double calibrate() {
  using clock = std::chrono::steady_clock;
  // Warm up, then time a block large enough to dwarf clock granularity.
  keep(chain(1, 10'000));
  constexpr u64 kUnits = 2'000'000;
  const auto t0 = clock::now();
  keep(chain(42, kUnits));
  const auto t1 = clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return secs > 0.0 ? static_cast<double>(kUnits) / secs : 1e9;
}

}  // namespace

u64 spin_work(u64 units) noexcept {
  const u64 r = chain(units + 7, units);
  keep(r);
  return r;
}

double spin_units_per_second() {
  static const double rate = calibrate();
  return rate;
}

void spin_for_nanos(Nanos ns) noexcept {
  if (ns <= 0) return;
  const double units = spin_units_per_second() * static_cast<double>(ns) * 1e-9;
  spin_work(units < 1.0 ? 1 : static_cast<u64>(units));
}

}  // namespace aid
