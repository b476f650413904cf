// perfbench — the layered benchmark's main program (see ../README.md).
//
//   perfbench --workload amp-aid|fine-static --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//   perfbench --self-test [--work-dir DIR]
//
// The last stdout line is the result JSON. The exit code is 0 only when
// every checked result matched its serial reference.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload amp-aid|fine-static "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n"
               "       perfbench --self-test [--work-dir DIR]\n");
  return 2;
}

Outcome run(const Options& opts) {
  return opts.workload == "amp-aid" ? run_amp_aid(opts) : run_fine_static(opts);
}

void print_result(const Outcome& o) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              o.correct ? "true" : "false",
              static_cast<long long>(o.attempted),
              static_cast<long long>(o.failed));
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    char value[64];
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof value, "%.17g", m.value);
    } else {
      std::snprintf(value, sizeof value, "null");
    }
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// The gate must be able to fail: with a deliberately wrong reference
/// every checked result of every workload, traced or not (the traced
/// fine-static run also checks every serve job), has to be reported
/// failed, and with the true reference none.
int self_test(const std::string& work_dir) {
  int bad = 0;
  for (const char* wl : {"amp-aid", "fine-static"}) {
    for (const int mode : {0, 1, 2, 3}) {
      const bool trace = mode >= 2;
      const bool corrupt = mode % 2 == 0;
      Options o;
      o.workload = wl;
      o.seconds = 0.5;
      o.seed = 7;
      o.trace = trace;
      o.work_dir = work_dir;
      o.corrupt_reference = corrupt;
      const Outcome r = run(o);
      const bool pass = corrupt ? (!r.correct && r.attempted > 0 &&
                                   r.failed == r.attempted)
                                : (r.correct && r.attempted > 0 && r.failed == 0);
      std::printf("self-test %-12s %-8s %-16s attempted %lld failed %lld: %s\n",
                  wl, trace ? "traced" : "untraced",
                  corrupt ? "wrong reference" : "true reference",
                  static_cast<long long>(r.attempted),
                  static_cast<long long>(r.failed), pass ? "ok" : "FAIL");
      if (!pass) ++bad;
    }
  }
  std::printf("self-test: %s\n", bad == 0 ? "passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool self = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") {
      self = true;
    } else if (a == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opts.trace = std::strcmp(argv[++i], "0") != 0;
      have_trace = true;
    } else if (a == "--work-dir" && has_value) {
      opts.work_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (self) return self_test(opts.work_dir);
  if (!have_trace || !(opts.seconds > 0) ||
      (opts.workload != "amp-aid" && opts.workload != "fine-static"))
    return usage();
  const Outcome result = run(opts);
  print_result(result);
  return result.correct && result.attempted > 0 ? 0 : 1;
}
