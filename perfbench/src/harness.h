// perfbench harness: options, result record, statistics and the span
// recorder shared by the workloads (see ../README.md).
//
// A run measures one workload for a fixed wall time and ends by printing
// one JSON line {"correct", "attempted", "failed", "metrics"}. Without
// --trace the metrics are the end-to-end set; with --trace they are the
// per-layer set. Every earlier stdout line is human-readable detail
// (provenance, the ungated figures, the reconciliation table).
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "common/types.h"

namespace perfbench {

using aid::i64;
using aid::u64;
using aid::usize;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Perturb the serial reference after set-up: every verified result
  /// must then mismatch (the self-test proving the gate can fail).
  bool corrupt_reference = false;
  /// Directory (relative to the working directory) for the ingress
  /// socket and the written-out trace; created by run.py.
  std::string work_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  i64 attempted = 0;
  i64 failed = 0;
  std::vector<Metric> metrics;
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

[[nodiscard]] inline i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty one. Infinite samples (failed requests) sort last.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Minima of consecutive windows of about `window` samples of a
/// time-ordered sample (n / window windows of equal share; a sample
/// shorter than one window is one window). A window's minimum is its run
/// least disturbed by other work on the host, and windows keep the minima
/// local in time: in a ratio of two interleaved series' window minima a
/// slow drift of the host's speed cancels.
[[nodiscard]] std::vector<double> window_mins(const std::vector<double>& v,
                                              usize window);

/// Median wall time of `reps` calls of `fn` (the set-up metric: set-up is
/// repeated so one slow page-fault storm does not decide it).
template <typename F>
double median_seconds(int reps, F&& fn) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    const i64 t0 = now_ns();
    fn();
    s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return median(std::move(s));
}

/// Peak resident set of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Per-core L2 and last-level cache sizes in bytes from sysfs (0 when the
/// host does not expose them).
struct CacheSizes {
  i64 l2 = 0;
  i64 llc = 0;
};
[[nodiscard]] CacheSizes read_cache_sizes();

/// The provenance line every run prints: seed, the harness::SysInfo
/// snapshot, caches, and the workload's declared configuration.
void print_provenance(const Options& opts, const std::string& workload_json,
                      i64 input_bytes);

/// One recorded body span: which construct, when it ran.
struct Span {
  int construct = 0;
  i64 begin = 0;
  i64 end = 0;
};

/// Per-thread span buffers, preallocated before the timed region. A full
/// buffer drops further spans and counts them; nothing allocates while
/// recording. record() is called only by the thread owning `tid`, and
/// read by the master after the construct's join (which orders it).
class SpanRecorder {
 public:
  SpanRecorder(int threads, usize capacity_per_thread);
  void record(int tid, int construct, i64 begin, i64 end) {
    Buffer& b = buffers_[static_cast<usize>(tid)];
    if (b.used < b.spans.size()) {
      b.spans[b.used++] = {construct, begin, end};
    } else {
      ++b.dropped;
    }
  }
  void clear();
  [[nodiscard]] int threads() const { return static_cast<int>(buffers_.size()); }
  [[nodiscard]] const Span* spans(int tid) const {
    return buffers_[static_cast<usize>(tid)].spans.data();
  }
  [[nodiscard]] usize used(int tid) const {
    return buffers_[static_cast<usize>(tid)].used;
  }
  [[nodiscard]] i64 dropped() const;
  /// Chrome trace-event JSON of the buffered spans (one complete event per
  /// span, one track per thread), for offline viewing.
  void write_chrome_trace(const std::string& path,
                          const std::vector<std::string>& names) const;

 private:
  // Each buffer header sits on its own cache line: the `used` counters
  // are written by different threads.
  struct alignas(64) Buffer {
    std::vector<Span> spans;
    usize used = 0;
    i64 dropped = 0;
  };
  std::vector<Buffer> buffers_;
};

// Workloads (loop_workloads.cc).
[[nodiscard]] Outcome run_amp_aid(const Options& opts);
[[nodiscard]] Outcome run_fine_static(const Options& opts);

}  // namespace perfbench
