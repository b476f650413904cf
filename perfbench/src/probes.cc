#include "probes.h"

#include <cstdio>
#include <vector>

#include "common/time_source.h"
#include "pipeline/loop_chain.h"
#include "platform/team_layout.h"
#include "pool/pool_manager.h"
#include "sched/loop_scheduler.h"

namespace perfbench {

namespace {

using namespace aid;

constexpr int kForkJoinReps = 2000;
constexpr int kTakeReps = 15;

/// Median per-call µs of `fn` over `reps` calls (after a short warm-up).
template <typename F>
double median_call_us(int reps, F&& fn) {
  for (int r = 0; r < reps / 10; ++r) fn();
  std::vector<double> us;
  us.reserve(static_cast<usize>(reps));
  for (int r = 0; r < reps; ++r) {
    const i64 t0 = now_ns();
    fn();
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(std::move(us));
}

const rt::RangeBody kEmptyBody = [](i64, i64, const rt::WorkerInfo&) {};

struct LayerUnit {
  const char* name;
  const char* unit;
};

/// Must list exactly BENCHMARK.json's per_layer entries, in order.
constexpr LayerUnit kLayerMetrics[] = {
    {"sched.take_ns", "ns"},
    {"sched.takes", "count"},
    {"sched.pool_removals", "count"},
    {"sched.steal_removals", "count"},
    {"sched.sf_error_frac", "frac"},
    {"sched.finish_spread_frac", "frac"},
    {"rt.forkjoin_us", "us"},
    {"rt.dispatch_us", "us"},
    {"rt.join_us", "us"},
    {"rt.idle_frac", "frac"},
    {"rt.construct_us.histogram", "us"},
    {"rt.construct_us.spmv", "us"},
    {"rt.construct_us.transpose", "us"},
    {"rt.construct_us.stencil2d", "us"},
    {"pipeline.chain_us", "us"},
    {"pipeline.scan_us", "us"},
    {"pool.forkjoin_us", "us"},
    {"serve.queue_wait_us_p50", "us"},
    {"serve.queue_wait_us_p99", "us"},
    {"serve.service_us_p50", "us"},
    {"serve.service_us_p99", "us"},
    {"serve.direct_rtt_us", "us"},
    {"serve.rejected", "count"},
    {"ingress.hop_us_p50", "us"},
    {"ingress.hop_us_p99", "us"},
    {"ingress.submit_call_us", "us"},
    {"ingress.shm_rtt_us", "us"},
    {"workloads.busy_ms", "ms"},
    {"workloads.bytes_computed", "bytes"},
    {"workloads.gbps_computed", "GB/s"},
    {"trace.overhead_frac", "frac"},
    {"trace.reconciled_frac", "frac"},
};

}  // namespace

double probe_take_ns(const platform::Platform& platform,
                     const sched::ScheduleSpec& spec, i64 count) {
  const platform::TeamLayout layout(platform, 1,
                                    platform::Mapping::kBigFirst);
  const SteadyTimeSource clock;
  sched::ThreadContext tc;
  tc.tid = 0;
  tc.core_type = layout.core_type_of(0);
  tc.speed = layout.speed_of(0);
  tc.time = &clock;
  std::vector<double> per_take;
  for (int r = 0; r < kTakeReps; ++r) {
    auto s = sched::make_scheduler(spec, count, layout);
    sched::IterRange range;
    i64 takes = 0;
    const i64 t0 = now_ns();
    while (s->next(tc, range)) ++takes;
    const i64 t1 = now_ns();
    if (takes > 0)
      per_take.push_back(static_cast<double>(t1 - t0) /
                         static_cast<double>(takes));
  }
  return median(std::move(per_take));
}

double probe_team_forkjoin_us(rt::Team& team,
                              const sched::ScheduleSpec& spec) {
  return median_call_us(kForkJoinReps, [&] {
    team.run_loop(team.nthreads(), spec, kEmptyBody);
  });
}

double probe_chain_us(rt::Team& team, const sched::ScheduleSpec& spec) {
  pipeline::LoopChain chain;
  const int a = chain.add(team.nthreads(), spec, kEmptyBody);
  const int b = chain.add_after(a, team.nthreads(), spec, kEmptyBody);
  chain.add_after(b, team.nthreads(), spec, kEmptyBody);
  return median_call_us(kForkJoinReps, [&] { team.run_chain(chain); });
}

double probe_pool_forkjoin_us(const platform::Platform& platform,
                              bool emulate_amp,
                              const sched::ScheduleSpec& spec) {
  pool::PoolManager::Config cfg;
  cfg.emulate_amp = emulate_amp;
  pool::PoolManager mgr(platform, cfg);
  pool::AppHandle lease = mgr.register_app("perfbench-probe");
  const i64 count = lease.nthreads();
  return median_call_us(kForkJoinReps,
                        [&] { lease.run_loop(count, spec, kEmptyBody); });
}

void add_layer_metrics(Outcome& out,
                       const std::map<std::string, double>& got) {
  std::printf("per-layer (0 = layer not on this workload's path):\n");
  for (const LayerUnit& m : kLayerMetrics) {
    const auto it = got.find(m.name);
    const double v = it == got.end() ? 0.0 : it->second;
    std::printf("  %-28s %14.4f %s%s\n", m.name, v, m.unit,
                it == got.end() ? "  (n/a)" : "");
    out.add(m.name, v, m.unit);
  }
}

}  // namespace perfbench
