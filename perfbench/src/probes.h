// Standalone per-layer probes for the traced runs: each one times a
// single layer in isolation through its public calls, so a layer's cost
// can be read without the workload around it.
#pragma once

#include <map>
#include <string>

#include "harness.h"
#include "platform/platform.h"
#include "rt/team.h"
#include "sched/schedule_spec.h"

namespace perfbench {

/// sched: ns per successful next() of a fresh scheduler drained by one
/// thread (make_scheduler + next() loop on a 1-thread layout).
[[nodiscard]] double probe_take_ns(const aid::platform::Platform& platform,
                                   const aid::sched::ScheduleSpec& spec,
                                   i64 count);

/// rt: µs per empty-body run_loop (one iteration per thread) on `team`.
[[nodiscard]] double probe_team_forkjoin_us(aid::rt::Team& team,
                                            const aid::sched::ScheduleSpec& spec);

/// pipeline: µs per empty 3-loop dependent chain on `team`.
[[nodiscard]] double probe_chain_us(aid::rt::Team& team,
                                    const aid::sched::ScheduleSpec& spec);

/// pool: µs per empty-body AppHandle::run_loop on a lease covering the
/// whole platform (the same size as the workload's team).
[[nodiscard]] double probe_pool_forkjoin_us(
    const aid::platform::Platform& platform, bool emulate_amp,
    const aid::sched::ScheduleSpec& spec);

/// serve + ingress: the closed-loop job mix over the socket, shm and
/// direct-submit legs for `seconds` (serve_mix.cc); fills the serve.* and
/// ingress.* layer metrics and counts every job in `out`.
void measure_serve_layers(const Options& opts, double seconds, Outcome& out,
                          std::map<std::string, double>& layers);

/// The per-layer metric set every traced run prints, in a fixed order.
/// Layers a workload does not exercise read 0 (listed as n/a above the
/// result line).
void add_layer_metrics(Outcome& out, const std::map<std::string, double>& got);

}  // namespace perfbench
