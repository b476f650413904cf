#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "harness/sysinfo.h"

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const usize lo = static_cast<usize>(pos);
  const usize hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi])) return v[hi];
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::vector<double> window_mins(const std::vector<double>& v, usize window) {
  const usize n = v.size();
  const usize w = std::max<usize>(1, n / std::max<usize>(1, window));
  std::vector<double> mins;
  if (n == 0) return mins;
  for (usize i = 0; i < w; ++i) {
    const auto b = v.begin() + static_cast<std::ptrdiff_t>(i * n / w);
    const auto e = v.begin() + static_cast<std::ptrdiff_t>((i + 1) * n / w);
    mins.push_back(*std::min_element(b, e));
  }
  return mins;
}

double peak_rss_mb() {
  // VmHWM belongs to this program image; ru_maxrss would also carry the
  // peak of the process image that exec'd us (the launching script).
  std::ifstream in("/proc/self/status");
  std::string line;
  while (in && std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

namespace {

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in) std::getline(in, line);
  return line;
}

/// "2048K" / "105M" / "512" -> bytes (0 when unparsable).
i64 parse_size(const std::string& text) {
  if (text.empty()) return 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || v <= 0) return 0;
  const char unit = *end;
  const i64 mult = unit == 'K' ? 1024 : unit == 'M' ? 1024 * 1024
                   : unit == 'G'                    ? i64{1} << 30
                                                    : 1;
  return static_cast<i64>(v) * mult;
}

}  // namespace

CacheSizes read_cache_sizes() {
  CacheSizes out;
  int llc_level = 0;
  for (int i = 0; i < 16; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level_text = read_line(dir + "level");
    if (level_text.empty()) continue;
    if (read_line(dir + "type") == "Instruction") continue;
    const int level = std::atoi(level_text.c_str());
    const i64 size = parse_size(read_line(dir + "size"));
    if (level == 2) out.l2 = size;
    if (level >= llc_level) {
      llc_level = level;
      out.llc = size;
    }
  }
  return out;
}

void print_provenance(const Options& opts, const std::string& workload_json,
                      i64 input_bytes) {
  const aid::harness::SysInfo info = aid::harness::collect_sysinfo();
  const CacheSizes caches = read_cache_sizes();
  std::printf(
      "provenance: {\"seed\": %llu, \"seconds\": %.3f, \"trace\": %s, "
      "\"sysinfo\": %s, \"caches\": {\"l2_bytes\": %lld, \"llc_bytes\": "
      "%lld}, \"input_bytes\": %lld, \"workload\": %s}\n",
      static_cast<unsigned long long>(opts.seed), opts.seconds,
      opts.trace ? "true" : "false", aid::harness::sysinfo_json(info).c_str(),
      static_cast<long long>(caches.l2), static_cast<long long>(caches.llc),
      static_cast<long long>(input_bytes), workload_json.c_str());
  const auto mib = [](i64 b) { return static_cast<double>(b) / (1 << 20); };
  const char* fit = "unknown (cache sizes unavailable)";
  if (caches.l2 > 0 && caches.llc > 0) {
    fit = input_bytes <= caches.l2    ? "fits in L2"
          : input_bytes <= caches.llc ? "exceeds L2 but fits in the LLC "
                                        "(not a DRAM-bandwidth test)"
                                      : "exceeds the LLC";
  }
  std::printf(
      "inputs: %.2f MiB against L2 %.2f MiB per core and LLC %.2f MiB: %s\n",
      mib(input_bytes), mib(caches.l2), mib(caches.llc), fit);
}

SpanRecorder::SpanRecorder(int threads, usize capacity_per_thread)
    : buffers_(static_cast<usize>(threads)) {
  for (Buffer& b : buffers_) b.spans.resize(capacity_per_thread);
}

void SpanRecorder::clear() {
  for (Buffer& b : buffers_) {
    b.used = 0;
    b.dropped = 0;
  }
}

i64 SpanRecorder::dropped() const {
  i64 d = 0;
  for (const Buffer& b : buffers_) d += b.dropped;
  return d;
}

void SpanRecorder::write_chrome_trace(
    const std::string& path, const std::vector<std::string>& names) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  i64 t0 = 0;
  bool have_t0 = false;
  for (const Buffer& b : buffers_)
    for (usize i = 0; i < b.used; ++i)
      if (!have_t0 || b.spans[i].begin < t0) {
        t0 = b.spans[i].begin;
        have_t0 = true;
      }
  std::fprintf(f, "{\"traceEvents\": [");
  bool first = true;
  for (usize tid = 0; tid < buffers_.size(); ++tid) {
    const Buffer& b = buffers_[tid];
    for (usize i = 0; i < b.used; ++i) {
      const Span& s = b.spans[i];
      const usize c = static_cast<usize>(s.construct);
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f}",
                   first ? "" : ",", c < names.size() ? names[c].c_str() : "?",
                   tid, static_cast<double>(s.begin - t0) / 1e3,
                   static_cast<double>(s.end - s.begin) / 1e3);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

}  // namespace perfbench
