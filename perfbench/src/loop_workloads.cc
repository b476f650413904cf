// The two loop workloads: amp-aid and fine-static.
//
// Both run the same DataPar kernel shapes (histogram, irregular SpMV x2,
// transpose, 4 stencil2d sweeps, the 3-loop scan chain) as one "pass" of
// 9 constructs submitted through rt::Team::run_loop / run_chain, with every
// input built in set-up from the seed. They differ in what dominates:
//
//   amp-aid      full-scale inputs, aid-dynamic,1,5 on an emulated
//                nproc/2 small + nproc/2 big AMP (speed 2.0): kernel
//                bodies, chunk takes and SF sampling do the work.
//   fine-static  L1/L2-sized inputs, static on a symmetric team without
//                emulation: dispatch/join and the chain dominate, and no
//                shared-pool take is ever made.
//
// Each pass is checked against the serial reference (a 1-thread static
// Team, emulation off) built in set-up; the serial pass is also the base
// of speedup_vs_serial.
#include <algorithm>
#include <atomic>
#include <climits>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "pipeline/loop_chain.h"
#include "platform/platform.h"
#include "probes.h"
#include "rt/team.h"
#include "sched/schedule_spec.h"
#include "workloads/kernels.h"

namespace perfbench {

namespace {

using namespace aid;
using workloads::kernels::CsrMatrix;
using workloads::kernels::Grid2D;
using workloads::kernels::KeyBatch;

constexpr i32 kBins = 256;
constexpr int kSweeps = 4;
constexpr double kStencilK = 0.18;

// Constructs of one pass, in submission order. The scan chain's three loops
// are one construct: one master call, one flush.
enum Construct : int {
  kHistogram = 0,
  kSpmv1,
  kSpmv2,
  kTranspose,
  kSweep0,  // kSweep0 .. kSweep0 + kSweeps - 1
  kScan = kSweep0 + kSweeps,
  kNumConstructs
};

constexpr const char* kConstructNames[kNumConstructs] = {
    "histogram",   "spmv.1",      "spmv.2",      "transpose",
    "stencil2d.1", "stencil2d.2", "stencil2d.3", "stencil2d.4",
    "scan"};

/// A pass submits the construct list `reps` times; slot r * kNumConstructs
/// + c is construct c of repetition r (the span and timestamp index).
int slot_of(int rep, int c) { return rep * kNumConstructs + c; }

std::vector<std::string> slot_names(int reps) {
  std::vector<std::string> names;
  for (int r = 0; r < reps; ++r)
    for (const char* n : kConstructNames)
      names.push_back(reps == 1 ? n : std::string(n) + "#" + std::to_string(r));
  return names;
}

// Kernel groups (checksums and rt.construct_us.<kernel>).
enum Kernel : int { kKHist = 0, kKSpmv, kKTranspose, kKStencil, kKScan, kNumKernels };
constexpr const char* kKernelNames[kNumKernels] = {
    "histogram", "spmv", "transpose", "stencil2d", "scan"};

int kernel_of(int c) {
  if (c == kHistogram) return kKHist;
  if (c == kSpmv1 || c == kSpmv2) return kKSpmv;
  if (c == kTranspose) return kKTranspose;
  if (c == kScan) return kKScan;
  return kKStencil;
}

struct Sizes {
  i64 hist_keys = 0;
  i64 spmv_rows = 0;
  i64 tr_rows = 0;
  i64 tr_cols = 0;
  i64 grid_side = 0;
  i64 scan_n = 0;
  i64 scan_block = 0;
};

struct LoopConfig {
  const char* name;
  Sizes sizes;
  int reps;  // construct-list repetitions per pass
  bool amp;  // emulated AMP + aid-dynamic,1,5, else symmetric + static
  /// The construct reported as heavy_wmin_ms.
  int heavy;
  /// Passes per window of the window-minimum metrics (pass_wmin_ms,
  /// heavy_wmin_ms, speedup_vs_serial; see harness.h window_mins): about
  /// half a second of passes on a quiet host.
  usize window;
  /// The traced run spends its last third on measure_serve_layers.
  bool serve_layers;
};

/// Inputs, built from the seed in set-up and never written afterwards.
struct Inputs {
  KeyBatch keys;
  CsrMatrix a;
  std::vector<double> x;
  std::vector<double> tr_in;
  Grid2D grid0;
  std::vector<double> scan_x;

  Inputs(const Sizes& s, u64 seed)
      : keys(KeyBatch::generate_skewed(s.hist_keys, kBins, 2.0, seed ^ 0x41)),
        a(CsrMatrix::random_irregular(s.spmv_rows, 16, seed ^ 0x5B)),
        x(workloads::kernels::signal_vector(s.spmv_rows, seed ^ 0x5A)),
        tr_in(workloads::kernels::signal_vector(s.tr_rows * s.tr_cols,
                                                seed ^ 0x72)),
        grid0(Grid2D::generate(s.grid_side, s.grid_side, seed ^ 0x5D)),
        scan_x(workloads::kernels::signal_vector(s.scan_n, seed ^ 0x5C)) {}

  [[nodiscard]] i64 bytes() const {
    const auto v = [](const auto& vec) {
      return static_cast<i64>(vec.size() * sizeof(vec[0]));
    };
    return v(keys.keys) + v(a.row_ptr) + v(a.cols) + v(a.vals) + v(x) +
           v(tr_in) + v(grid0.cells) + v(scan_x);
  }
};

struct Checksums {
  double v[kNumKernels] = {};
  [[nodiscard]] bool operator==(const Checksums& o) const {
    for (int k = 0; k < kNumKernels; ++k)
      if (v[k] != o.v[k]) return false;
    return true;
  }
};

/// Master-side timestamps and scheduler stats of one pass.
struct PassRecord {
  explicit PassRecord(int reps)
      : call_begin(static_cast<usize>(reps * kNumConstructs)),
        call_end(call_begin.size()),
        stats(call_begin.size()) {}
  std::vector<i64> call_begin, call_end;
  std::vector<sched::SchedulerStats> stats;
};

/// Outputs plus the construct bodies of one pass. Bodies and chains are
/// built once per (schedule, traced) variant so a pass allocates nothing.
class Suite {
 public:
  struct Variant {
    sched::ScheduleSpec spec;
    std::vector<rt::RangeBody> bodies;  // indexed by slot (scan unused)
    std::vector<pipeline::LoopChain> scans;  // one per repetition
  };

  Suite(const Sizes& s, int reps, const Inputs& in, SpanRecorder* rec)
      : s_(s),
        reps_(reps),
        in_(in),
        rec_(rec),
        bins_(kBins),
        y_(static_cast<usize>(s.spmv_rows)),
        z_(static_cast<usize>(s.spmv_rows)),
        tr_out_(in.tr_in.size()),
        grid_a_(in.grid0),
        grid_b_(in.grid0),
        nblocks_((s.scan_n + s.scan_block - 1) / s.scan_block),
        block_sums_(static_cast<usize>(nblocks_)),
        offsets_(static_cast<usize>(nblocks_)),
        scan_out_(static_cast<usize>(s.scan_n)) {}

  /// Bodies for `spec`; with `traced`, every body invocation records a
  /// span into the recorder (the only instrumentation of the traced run).
  [[nodiscard]] Variant make_variant(const sched::ScheduleSpec& spec,
                                     bool traced) {
    Variant v;
    v.spec = spec;
    const auto wrap = [&](int c, rt::RangeBody body) -> rt::RangeBody {
      if (!traced) return body;
      return [rec = rec_, c, body = std::move(body)](
                 i64 b, i64 e, const rt::WorkerInfo& w) {
        const i64 t0 = now_ns();
        body(b, e, w);
        rec->record(w.tid, c, t0, now_ns());
      };
    };
    v.bodies.resize(static_cast<usize>(reps_ * kNumConstructs));
    v.scans.resize(static_cast<usize>(reps_));
    for (int r = 0; r < reps_; ++r) add_bodies(v, r, wrap);
    return v;
  }

  /// Restore the state a pass reads and accumulates into (outside the
  /// timed region).
  void reset() {
    for (auto& b : bins_) b.store(0, std::memory_order_relaxed);
    grid_a_.cells = in_.grid0.cells;
  }

  /// One pass: every construct in submission order, closed loop.
  void pass(rt::Team& team, const Variant& v, PassRecord* rec) {
    const auto run = [&](int slot, i64 count) {
      const usize i = static_cast<usize>(slot);
      if (rec != nullptr) rec->call_begin[i] = now_ns();
      team.run_loop(count, v.spec, v.bodies[i]);
      if (rec != nullptr) {
        rec->call_end[i] = now_ns();
        rec->stats[i] = team.last_loop_stats();
      }
    };
    for (int r = 0; r < reps_; ++r) {
      run(slot_of(r, kHistogram), s_.hist_keys);
      run(slot_of(r, kSpmv1), s_.spmv_rows);
      run(slot_of(r, kSpmv2), s_.spmv_rows);
      run(slot_of(r, kTranspose), s_.tr_rows);
      for (int sw = 0; sw < kSweeps; ++sw)
        run(slot_of(r, kSweep0 + sw), s_.grid_side);
      const usize i = static_cast<usize>(slot_of(r, kScan));
      if (rec != nullptr) rec->call_begin[i] = now_ns();
      team.run_chain(v.scans[static_cast<usize>(r)]);
      if (rec != nullptr) {
        rec->call_end[i] = now_ns();
        rec->stats[i] = team.last_loop_stats();
      }
    }
  }

 private:
  template <typename Wrap>
  void add_bodies(Variant& v, int rep, const Wrap& wrap) {
    const auto at = [&](int c) -> rt::RangeBody& {
      return v.bodies[static_cast<usize>(slot_of(rep, c))];
    };
    const auto w = [&](int c, rt::RangeBody body) {
      return wrap(slot_of(rep, c), std::move(body));
    };
    const sched::ScheduleSpec& spec = v.spec;
    at(kHistogram) = w(kHistogram, [this](i64 b, i64 e,
                                                   const rt::WorkerInfo&) {
      workloads::kernels::atomic_histogram_slice(in_.keys, bins_, b, e);
    });
    at(kSpmv1) = w(kSpmv1, [this](i64 b, i64 e,
                                           const rt::WorkerInfo&) {
      for (i64 r = b; r < e; ++r)
        y_[static_cast<usize>(r)] = workloads::kernels::spmv_row(in_.a, in_.x, r);
    });
    at(kSpmv2) = w(kSpmv2, [this](i64 b, i64 e,
                                           const rt::WorkerInfo&) {
      for (i64 r = b; r < e; ++r)
        z_[static_cast<usize>(r)] = workloads::kernels::spmv_row(in_.a, y_, r);
    });
    at(kTranspose) = w(kTranspose, [this](i64 b, i64 e,
                                                   const rt::WorkerInfo&) {
      workloads::kernels::transpose_rows(in_.tr_in, tr_out_, s_.tr_rows,
                                         s_.tr_cols, b, e);
    });
    for (int sw = 0; sw < kSweeps; ++sw) {
      const Grid2D* src = sw % 2 == 0 ? &grid_a_ : &grid_b_;
      Grid2D* dst = sw % 2 == 0 ? &grid_b_ : &grid_a_;
      at(kSweep0 + sw) = w(
          kSweep0 + sw, [src, dst](i64 b, i64 e, const rt::WorkerInfo&) {
            for (i64 r = b; r < e; ++r)
              workloads::kernels::stencil2d_row(*src, *dst, r, kStencilK);
          });
    }
    // Two-phase scan as a dependent chain (block sums -> serial combine
    // -> downsweep), the same shape as the DataPar scan kernel.
    pipeline::LoopChain& scan = v.scans[static_cast<usize>(rep)];
    const int up = scan.add(
        nblocks_, spec, w(kScan, [this](i64 b, i64 e, const rt::WorkerInfo&) {
          for (i64 blk = b; blk < e; ++blk)
            block_sums_[static_cast<usize>(blk)] = workloads::kernels::range_sum(
                in_.scan_x, blk * s_.scan_block,
                std::min(s_.scan_n, (blk + 1) * s_.scan_block));
        }));
    const int combine = scan.add_after(
        up, 1, sched::ScheduleSpec::static_even(),
        w(kScan, [this](i64, i64, const rt::WorkerInfo&) {
          double acc = 0.0;
          for (i64 blk = 0; blk < nblocks_; ++blk) {
            offsets_[static_cast<usize>(blk)] = acc;
            acc += block_sums_[static_cast<usize>(blk)];
          }
        }));
    scan.add_after(
        combine, nblocks_, spec,
        w(kScan, [this](i64 b, i64 e, const rt::WorkerInfo&) {
          for (i64 blk = b; blk < e; ++blk)
            workloads::kernels::inclusive_scan_apply(
                in_.scan_x, offsets_[static_cast<usize>(blk)], scan_out_,
                blk * s_.scan_block,
                std::min(s_.scan_n, (blk + 1) * s_.scan_block));
        }));
  }

 public:
  /// Fixed-order serial checksums (schedule-invariant bit for bit).
  [[nodiscard]] Checksums checksums() const {
    Checksums c;
    for (usize k = 0; k < bins_.size(); ++k)
      c.v[kKHist] += static_cast<double>(bins_[k].load(std::memory_order_relaxed)) *
                     static_cast<double>(k + 1);
    for (const double v : z_) c.v[kKSpmv] += v;
    for (usize k = 0; k < tr_out_.size(); ++k)
      c.v[kKTranspose] += tr_out_[k] * static_cast<double>(k % 13 + 1);
    for (const double v : grid_a_.cells) c.v[kKStencil] += v;
    c.v[kKScan] = scan_out_.back();
    for (usize i = 0; i < scan_out_.size(); i += 97) c.v[kKScan] += scan_out_[i];
    return c;
  }

  /// Bytes one pass reads and writes, computed from the array sizes (not
  /// measured): what a perfect cache-less pass would move.
  [[nodiscard]] double bytes_per_pass() const {
    const double d = sizeof(double);
    const double nnz = static_cast<double>(in_.a.nnz());
    const double rows = static_cast<double>(s_.spmv_rows);
    const double hist = static_cast<double>(s_.hist_keys) * sizeof(i32);
    const double spmv = 2.0 * (nnz * (sizeof(i64) + 2 * d) +
                               rows * (sizeof(i64) + d));
    const double tr = 2.0 * d * static_cast<double>(in_.tr_in.size());
    const double st = kSweeps * 2.0 * d *
                      static_cast<double>(s_.grid_side * s_.grid_side);
    const double scan = 3.0 * d * static_cast<double>(s_.scan_n);
    return reps_ * (hist + spmv + tr + st + scan);
  }

 private:
  Sizes s_;
  int reps_;
  const Inputs& in_;
  SpanRecorder* rec_;
  std::vector<std::atomic<i64>> bins_;
  std::vector<double> y_, z_, tr_out_;
  Grid2D grid_a_, grid_b_;
  i64 nblocks_;
  std::vector<double> block_sums_, offsets_, scan_out_;
};

/// Everything set-up builds: inputs, both teams, the suite and the serial
/// reference. Destroyed and rebuilt for each set-up repetition.
struct World {
  World(platform::Platform p, sched::ScheduleSpec s)
      : platform(std::move(p)), spec(s) {}
  platform::Platform platform;
  sched::ScheduleSpec spec;
  std::unique_ptr<Inputs> in;
  std::unique_ptr<rt::Team> team;
  std::unique_ptr<rt::Team> serial;
  std::unique_ptr<Suite> suite;
  Suite::Variant par, serial_v;
  Checksums reference;
};

platform::Platform platform_of(const LoopConfig& cfg, int nproc) {
  if (!cfg.amp) return platform::symmetric(nproc);
  const int small = std::max(1, nproc / 2);
  const int big = std::max(1, nproc - small);
  return platform::generic_amp(small, big, 2.0);
}

void build_world(World& w, const LoopConfig& cfg, u64 seed,
                 SpanRecorder* rec) {
  w.suite.reset();
  w.in.reset();
  w.team.reset();
  w.serial.reset();
  w.in = std::make_unique<Inputs>(cfg.sizes, seed);
  w.team = std::make_unique<rt::Team>(w.platform, w.platform.num_cores(),
                                      platform::Mapping::kBigFirst,
                                      /*emulate_amp=*/cfg.amp);
  w.serial = std::make_unique<rt::Team>(platform::symmetric(1), 1,
                                        platform::Mapping::kBigFirst,
                                        /*emulate_amp=*/false);
  w.suite = std::make_unique<Suite>(cfg.sizes, cfg.reps, *w.in, rec);
  w.par = w.suite->make_variant(w.spec, false);
  w.serial_v = w.suite->make_variant(sched::ScheduleSpec::static_even(), false);
  w.suite->reset();
  w.suite->pass(*w.serial, w.serial_v, nullptr);
  w.reference = w.suite->checksums();
}

std::string workload_json(const LoopConfig& cfg, const World& w) {
  char platform[96];
  if (cfg.amp) {
    std::snprintf(platform, sizeof platform, "generic-amp %dS+%dB, big speed %.1f",
                  w.platform.cores_of_type(0), w.platform.cores_of_type(1),
                  w.platform.nominal_asymmetry());
  } else {
    std::snprintf(platform, sizeof platform, "symmetric %d",
                  w.platform.num_cores());
  }
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "{\"name\": \"%s\", \"platform\": \"%s\", \"emulate_amp\": %s, "
      "\"team_threads\": %d, \"mapping\": \"big-first\", \"schedule\": "
      "\"%s\", \"transport\": \"none (in-process Team)\", "
      "\"constructs_per_pass\": %d, \"serial_base\": \"1-thread static "
      "Team, emulation off\"}",
      cfg.name, platform, cfg.amp ? "true" : "false", w.team->nthreads(),
      cfg.amp ? "aid-dynamic,1,5" : "static",
      cfg.reps * static_cast<int>(kNumConstructs));
  return buf;
}

/// Traced-pass analysis accumulated across passes.
struct TraceTotals {
  std::vector<double> takes, removals, steals, busy_ms, reconciled;
  std::vector<double> sf, dispatch_us, join_us;
  std::vector<double> construct_us[kNumKernels];
  double wall_ns = 0, spread_ns = 0, busy_ns = 0, thread_wall_ns = 0;
  i64 dropped = 0;
};

/// Fold one traced pass (spans + master timestamps) into the totals.
/// Reconciliation: per construct, dispatch + join + (body time + takes x
/// take_ns + emulated throttle) / threads is what the layers account for;
/// the remainder is idle (imbalance) time.
void analyze_pass(const SpanRecorder& rec, const PassRecord& pr,
                  const World& w, bool amp, double take_ns, i64 pass_ns,
                  TraceTotals& t) {
  const int threads = rec.threads();
  const int slots = static_cast<int>(pr.call_begin.size());
  struct Acc {
    i64 count = 0, busy = 0, first = 0, last = 0;
  };
  std::vector<Acc> acc(static_cast<usize>(slots * threads));
  for (int tid = 0; tid < threads; ++tid) {
    const Span* s = rec.spans(tid);
    for (usize i = 0; i < rec.used(tid); ++i) {
      Acc& a = acc[static_cast<usize>(s[i].construct * threads + tid)];
      if (a.count == 0) a.first = s[i].begin;
      ++a.count;
      a.busy += s[i].end - s[i].begin;
      a.last = s[i].end;
    }
  }
  const double slow = w.platform.nominal_asymmetry();
  double takes = 0, removals = 0, steals = 0, busy = 0, explained = 0;
  double kernel_us[kNumKernels] = {};
  for (int c = 0; c < slots; ++c) {
    const usize ci = static_cast<usize>(c);
    i64 first = INT64_MAX, last_max = 0, last_min = INT64_MAX, cbusy = 0,
        ccount = 0;
    double throttle = 0;
    for (int tid = 0; tid < threads; ++tid) {
      const Acc& a = acc[static_cast<usize>(c * threads + tid)];
      if (a.count == 0) continue;
      first = std::min(first, a.first);
      last_max = std::max(last_max, a.last);
      last_min = std::min(last_min, a.last);
      cbusy += a.busy;
      ccount += a.count;
      if (amp && w.team->layout().core_type_of(tid) == 0)
        throttle += static_cast<double>(a.busy) * (slow - 1.0);
    }
    const double wall = static_cast<double>(pr.call_end[ci] - pr.call_begin[ci]);
    kernel_us[kernel_of(c % kNumConstructs)] += wall * 1e-3;
    t.wall_ns += wall;
    t.busy_ns += static_cast<double>(cbusy);
    t.thread_wall_ns += wall * threads;
    takes += static_cast<double>(ccount);
    busy += static_cast<double>(cbusy);
    removals += static_cast<double>(pr.stats[ci].pool_removals);
    steals += static_cast<double>(pr.stats[ci].steal_removals);
    if (pr.stats[ci].estimated_sf > 0) t.sf.push_back(pr.stats[ci].estimated_sf);
    if (ccount == 0) continue;
    const double dispatch = static_cast<double>(first - pr.call_begin[ci]);
    const double join = static_cast<double>(pr.call_end[ci] - last_max);
    t.dispatch_us.push_back(dispatch * 1e-3);
    t.join_us.push_back(join * 1e-3);
    t.spread_ns += static_cast<double>(last_max - last_min);
    explained += dispatch + join +
                 (static_cast<double>(cbusy) + static_cast<double>(ccount) * take_ns +
                  throttle) / threads;
  }
  t.takes.push_back(takes);
  t.removals.push_back(removals);
  t.steals.push_back(steals);
  t.busy_ms.push_back(busy * 1e-6);
  t.reconciled.push_back(explained / static_cast<double>(pass_ns));
  for (int k = 0; k < kNumKernels; ++k) t.construct_us[k].push_back(kernel_us[k]);
  t.dropped += rec.dropped();
}

Outcome run_loop_workload(const Options& opts, const LoopConfig& cfg) {
  Outcome out;
  const int nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  World w(platform_of(cfg, nproc),
          cfg.amp ? sched::ScheduleSpec::aid_dynamic(1, 5)
                  : sched::ScheduleSpec::static_even());
  std::unique_ptr<SpanRecorder> rec;
  if (opts.trace)
    rec = std::make_unique<SpanRecorder>(w.platform.num_cores(), usize{1} << 18);

  const double setup_s =
      median_seconds(21, [&] { build_world(w, cfg, opts.seed, rec.get()); });
  if (opts.corrupt_reference)
    for (double& v : w.reference.v) v += 1.0;
  const Suite::Variant traced =
      opts.trace ? w.suite->make_variant(w.spec, true) : Suite::Variant{};
  print_provenance(opts, workload_json(cfg, w), w.in->bytes());

  const auto verify = [&](const char* what) {
    ++out.attempted;
    const Checksums got = w.suite->checksums();
    if (got == w.reference) return;
    ++out.failed;
    out.correct = false;
    if (out.failed <= 3)
      std::fprintf(stderr, "%s: %s pass checksum mismatch\n", cfg.name, what);
  };

  // Warm-up: caches, lazily-spawned state, scheduler caches.
  const i64 warm_end = now_ns() + static_cast<i64>(opts.seconds * 0.05e9);
  for (int i = 0; i < 2 || now_ns() < warm_end; ++i) {
    w.suite->reset();
    w.suite->pass(*w.team, w.par, nullptr);
    verify("warm-up");
  }
  // Read before the timed loop: its per-pass sample vectors grow with the
  // number of passes, so a later reading would measure the host's speed.
  const double rss_mb = peak_rss_mb();

  std::map<std::string, double> layers;
  double take_ns = 0;
  if (opts.trace) {
    take_ns = probe_take_ns(w.platform, w.spec, cfg.sizes.hist_keys);
    layers["sched.take_ns"] = take_ns;
    layers["rt.forkjoin_us"] = probe_team_forkjoin_us(*w.team, w.spec);
    layers["pipeline.chain_us"] = probe_chain_us(*w.team, w.spec);
    layers["pool.forkjoin_us"] =
        probe_pool_forkjoin_us(w.platform, cfg.amp, w.spec);
  }

  // heavy_min_ms: per untraced pass, the fastest of its heavy constructs.
  std::vector<double> pass_ms, serial_ms, heavy_ms, heavy_min_ms, traced_ms;
  TraceTotals tt;
  PassRecord pr(cfg.reps);
  const double serve_s =
      opts.trace && cfg.serve_layers ? opts.seconds / 3.0 : 0.0;
  const i64 end = now_ns() + static_cast<i64>((opts.seconds - serve_s) * 1e9);
  for (u64 i = 0; now_ns() < end; ++i) {
    // The traced run alternates traced and untraced passes so the
    // tracing overhead is measured under the same machine noise.
    const bool traced_pass = opts.trace && i % 2 == 1;
    if (traced_pass) rec->clear();
    w.suite->reset();
    const i64 t0 = now_ns();
    w.suite->pass(*w.team, traced_pass ? traced : w.par, &pr);
    const i64 t1 = now_ns();
    verify("parallel");
    if (traced_pass) {
      traced_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      analyze_pass(*rec, pr, w, cfg.amp, take_ns, t1 - t0, tt);
      continue;
    }
    pass_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    double heavy_min = INFINITY;
    for (int r = 0; r < cfg.reps; ++r) {
      const usize h = static_cast<usize>(slot_of(r, cfg.heavy));
      heavy_ms.push_back(static_cast<double>(pr.call_end[h] - pr.call_begin[h]) * 1e-6);
      heavy_min = std::min(heavy_min, heavy_ms.back());
    }
    heavy_min_ms.push_back(heavy_min);
    if (opts.trace) continue;
    w.suite->reset();
    const i64 s0 = now_ns();
    w.suite->pass(*w.serial, w.serial_v, nullptr);
    const i64 s1 = now_ns();
    verify("serial");
    serial_ms.push_back(static_cast<double>(s1 - s0) * 1e-6);
  }

  const double p50 = median(pass_ms);
  std::printf("%s: %zu timed passes, %lld checks, %lld failed (failed_frac %.4f)\n",
              cfg.name, pass_ms.size(), static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed),
              static_cast<double>(out.failed) / static_cast<double>(out.attempted));
  if (!opts.trace) {
    const double serial_p50 = median(serial_ms);
    // Window minima of the interleaved serial and parallel passes: a
    // window's ratio compares the two at the same time on the host.
    const std::vector<double> serial_min = window_mins(serial_ms, cfg.window);
    const std::vector<double> pass_min = window_mins(pass_ms, cfg.window);
    std::vector<double> ratios;
    for (usize k = 0; k < pass_min.size(); ++k)
      ratios.push_back(serial_min[k] / pass_min[k]);
    const double speedup = median(ratios);
    const double pass_wmin = median(pass_min);
    const double heavy_wmin = median(window_mins(heavy_min_ms, cfg.window));
    double total_ms = 0;
    for (const double v : pass_ms) total_ms += v;
    // The median, the tail and the mean rate are printed, not gated: on a
    // host whose neighbours steal CPU they measure the host (see
    // ../README.md).
    std::printf(
        "  pass_p50_ms %.4f  pass_p90_ms %.4f  passes_per_s %.2f  "
        "%s_p50_ms %.4f\n"
        "  pass_wmin_ms %.4f  heavy_wmin_ms %.4f (%s): medians over "
        "%zu-pass windows of the window's fastest\n"
        "  speedup_vs_serial %.4f (base: 1-thread static Team, emulation "
        "off, interleaved; median over the windows of the ratio of the "
        "windows' fastest serial and parallel passes; serial pass p50 "
        "%.4f ms, p50 ratio %.4f; %s)\n"
        "  setup_s %.4f  peak_rss_mb %.1f (both outside the timed passes)\n",
        p50, percentile(pass_ms, 0.9),
        1e3 * static_cast<double>(pass_ms.size()) / total_ms,
        kConstructNames[cfg.heavy], median(heavy_ms), pass_wmin, heavy_wmin,
        kConstructNames[cfg.heavy], cfg.window, speedup, serial_p50,
        serial_p50 / p50,
        cfg.amp ? "ideal on NS small + NB big at 2.0 is (NS + 2 NB) / 2"
                : "ideal is the team size",
        setup_s, rss_mb);
    out.add("setup_s", setup_s, "s");
    out.add("pass_wmin_ms", pass_wmin, "ms");
    out.add("heavy_wmin_ms", heavy_wmin, "ms");
    out.add("speedup_vs_serial", speedup, "x");
    out.add("peak_rss_mb", rss_mb, "MB");
    return out;
  }

  const double traced_p50 = median(traced_ms);
  const double bytes = w.suite->bytes_per_pass();
  layers["sched.takes"] = median(tt.takes);
  layers["sched.pool_removals"] = median(tt.removals);
  layers["sched.steal_removals"] = median(tt.steals);
  if (cfg.amp)
    layers["sched.sf_error_frac"] =
        std::fabs(median(tt.sf) - w.platform.nominal_asymmetry()) /
        w.platform.nominal_asymmetry();
  layers["sched.finish_spread_frac"] = tt.spread_ns / tt.wall_ns;
  layers["rt.dispatch_us"] = median(tt.dispatch_us);
  layers["rt.join_us"] = median(tt.join_us);
  layers["rt.idle_frac"] = 1.0 - tt.busy_ns / tt.thread_wall_ns;
  for (int k = 0; k < kNumKernels - 1; ++k)
    layers[std::string("rt.construct_us.") + kKernelNames[k]] =
        median(tt.construct_us[k]);
  layers["pipeline.scan_us"] = median(tt.construct_us[kKScan]);
  layers["workloads.busy_ms"] = median(tt.busy_ms);
  layers["workloads.bytes_computed"] = bytes;
  layers["workloads.gbps_computed"] = bytes / (p50 * 1e6);
  layers["trace.overhead_frac"] = traced_p50 / p50 - 1.0;
  layers["trace.reconciled_frac"] = median(tt.reconciled);
  std::printf(
      "  untraced pass p50 %.4f ms, traced pass p50 %.4f ms over %zu traced "
      "passes (%lld spans dropped)\n"
      "  sched.sf_estimate p50 %.3f (emulated truth %.1f; 0 = not an AID "
      "schedule)\n"
      "  reconciliation: dispatch + join + (body + takes x take_ns + "
      "emulated throttle) / threads = %.1f%% of the traced pass; idle "
      "(imbalance) is %.1f%% of thread time\n",
      p50, traced_p50, traced_ms.size(), static_cast<long long>(tt.dropped),
      median(tt.sf), w.platform.nominal_asymmetry(),
      100.0 * median(tt.reconciled), 100.0 * layers["rt.idle_frac"]);
  rec->write_chrome_trace(opts.work_dir + "/trace_" + cfg.name + ".json",
                          slot_names(cfg.reps));
  if (cfg.serve_layers) measure_serve_layers(opts, serve_s, out, layers);
  add_layer_metrics(out, layers);
  return out;
}

}  // namespace

Outcome run_amp_aid(const Options& opts) {
  // Full scale (the DataPar suite's scale 1.0 sizes): ~12.6 MiB of inputs.
  const LoopConfig cfg{"amp-aid",
                       {300000, 20000, 768, 384, 512, 250000, 512},
                       /*reps=*/1,
                       /*amp=*/true,
                       /*heavy=*/kHistogram,
                       /*window=*/8,
                       /*serve_layers=*/false};
  return run_loop_workload(opts, cfg);
}

Outcome run_fine_static(const Options& opts) {
  // L1/L2-sized: 4k keys, 512-row CSR, 64x32 transpose, 64^2 grid, 4k scan;
  // the 9-construct list is submitted 8 times per pass (72 constructs), so a
  // pass is long enough that one preemption does not decide its time.
  const LoopConfig cfg{"fine-static",
                       {4096, 512, 64, 32, 64, 4096, 64},
                       /*reps=*/8,
                       /*amp=*/false,
                       /*heavy=*/kScan,
                       /*window=*/256,
                       /*serve_layers=*/true};
  return run_loop_workload(opts, cfg);
}

}  // namespace perfbench
