// Serve/ingress/pool layer measurement, run inside the traced fine-static
// run: an in-process ServeNode over symmetric(nproc) behind an
// IngressServer, driven by one client thread over the socket transport in
// a closed loop with 4 requests in flight: 3 slots of latency-class EP
// count-1024 jobs and 1 slot of batch-class spmv or stencil2d jobs of
// count 65536, all with the wire-default schedule; the seed decides the
// batch order. Every COMPLETED checksum is compared with a serial run of
// the same serve kernel made in set-up.
//
// Four legs run in rounds: the same mix over the socket untraced and
// traced (client calls timed), over the shm ring, and submitted directly
// through ServeNode::submit (no ingress at all).
//
// This is not an end-to-end workload: on a shared 4-vCPU host the serve
// node's figures swung up to 2x between runs (see ../README.md).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/rng.h"
#include "harness.h"
#include "ingress/ingress_client.h"
#include "ingress/ingress_server.h"
#include "platform/platform.h"
#include "probes.h"
#include "serve/serve_node.h"
#include "workloads/serve_kernel.h"

namespace perfbench {

namespace {

using namespace aid;
using ingress::IngressClient;

constexpr u32 kCreditWindow = 8;

struct JobKind {
  const char* workload;
  i64 count;
  serve::QosClass qos;
};
constexpr JobKind kKinds[] = {
    {"EP", 1024, serve::QosClass::kLatency},
    {"spmv", 65536, serve::QosClass::kBatch},
    {"stencil2d", 65536, serve::QosClass::kBatch},
};
constexpr int kNumKinds = 3;

/// The closed loop keeps 3 latency-class and 1 batch-class request in
/// flight; the seed orders the batch kinds in balanced pairs (one spmv and
/// one stencil2d per pair), so every seed runs the same kind mix.
constexpr int kSlots[2] = {3, 1};  // [0] latency, [1] batch

class MixGen {
 public:
  explicit MixGen(u64 seed) : rng_(seed) {}
  /// Next job kind for a free slot of class `cls` (0 latency, 1 batch).
  int next(int cls) {
    if (cls == 0) return 0;
    if (pair_pos_ == 2) {
      pair_pos_ = 0;
      first_ = 1 + static_cast<int>(rng_.next_u64() % 2);
    }
    return pair_pos_++ == 0 ? first_ : 3 - first_;
  }

 private:
  Rng rng_;
  int pair_pos_ = 2;
  int first_ = 1;
};

int class_of(int kind) { return kind == 0 ? 0 : 1; }

/// Kind for the next submission, or -1 while every slot is taken.
int next_kind(MixGen& gen, const int open[2]) {
  for (int cls = 0; cls < 2; ++cls)
    if (open[cls] < kSlots[cls]) return gen.next(cls);
  return -1;
}

/// One serial run of a serve kernel (the reference): build, every
/// iteration, checksum.
double serial_checksum(int kind) {
  std::string err;
  auto k = workloads::make_serve_kernel(kKinds[kind].workload,
                                        kKinds[kind].count, &err);
  if (!k) {
    std::fprintf(stderr, "serve layers: %s\n", err.c_str());
    return std::nan("");
  }
  k->body(0, k->count, rt::WorkerInfo{});
  return k->checksum();
}

/// Everything set-up builds; torn down client-first.
struct World {
  std::string socket_path;
  std::unique_ptr<serve::ServeNode> node;
  std::unique_ptr<ingress::IngressServer> server;
  std::optional<IngressClient> socket_client;
  std::optional<IngressClient> shm_client;
  double reference[kNumKinds] = {};

  ~World() {
    shm_client.reset();
    socket_client.reset();
    server.reset();
    node.reset();
  }
};

std::optional<IngressClient> connect(const std::string& path,
                                     const char* tenant,
                                     IngressClient::Transport t) {
  std::string err;
  auto c = IngressClient::connect(path, tenant, &err, t);
  if (!c) std::fprintf(stderr, "serve layers: connect(%s): %s\n", tenant, err.c_str());
  return c;
}

bool build_world(World& w, const platform::Platform& platform) {
  w.node = std::make_unique<serve::ServeNode>(platform,
                                              serve::ServeNode::Config{});
  ingress::IngressServer::Config icfg;
  icfg.socket_path = w.socket_path;
  icfg.credit_window = kCreditWindow;
  w.server = std::make_unique<ingress::IngressServer>(*w.node, icfg);
  w.socket_client = connect(w.socket_path, "perfbench-socket",
                            IngressClient::Transport::kSocket);
  w.shm_client = connect(w.socket_path, "perfbench-shm",
                         IngressClient::Transport::kShm);
  for (int k = 0; k < kNumKinds; ++k) w.reference[k] = serial_checksum(k);
  return w.socket_client.has_value() && w.shm_client.has_value();
}

/// Per-leg samples (µs unless named otherwise).
struct Leg {
  std::vector<double> lat_rtt, batch_rtt, qwait, service, hop, submit_call;
  i64 jobs = 0;
};

struct Verdict {
  Outcome* out;
  const double* reference;
};

/// Fold one finished job into the leg. A failed job (transport death,
/// non-done status or checksum mismatch) counts as missing every latency
/// percentile: its RTT is recorded as +inf.
void finish(Leg& leg, const Verdict& v, int kind, i64 t0, i64 t1,
            bool transport_ok, serve::JobStatus status, double checksum,
            i64 qwait_ns, i64 service_ns, const char* leg_name) {
  const double rtt_us = static_cast<double>(t1 - t0) * 1e-3;
  ++v.out->attempted;
  const bool ok = transport_ok && status == serve::JobStatus::kDone &&
                  checksum == v.reference[kind];
  if (!ok) {
    ++v.out->failed;
    v.out->correct = false;
    if (v.out->failed <= 3)
      std::fprintf(stderr,
                   "serve layers %s: %s job failed (transport %d, status %s, "
                   "checksum %.17g vs %.17g)\n",
                   leg_name, kKinds[kind].workload, transport_ok ? 1 : 0,
                   serve::to_string(status), checksum, v.reference[kind]);
  }
  const double rtt = ok ? rtt_us : INFINITY;
  ++leg.jobs;
  if (kKinds[kind].qos != serve::QosClass::kLatency) {
    leg.batch_rtt.push_back(rtt);
    return;
  }
  leg.lat_rtt.push_back(rtt);
  if (!ok) return;
  const double q = static_cast<double>(qwait_ns) * 1e-3;
  const double s = static_cast<double>(service_ns) * 1e-3;
  leg.qwait.push_back(q);
  leg.service.push_back(s);
  leg.hop.push_back(rtt_us - q - s);
}

/// Closed loop over an ingress client: keep every slot filled until
/// `stop()` says so, then drain. Polls with try_take and yields between
/// empty rounds so each RTT ends when its terminal frame is read.
template <typename Stop>
void wire_leg(IngressClient& c, MixGen& gen, const Verdict& v, Leg& leg,
              bool time_calls, const char* name, Stop stop) {
  struct Pending {
    u64 id;
    int kind;
    i64 t0;
  };
  std::vector<Pending> inflight;
  int open[2] = {0, 0};
  i64 submitted = 0;
  while (true) {
    while (!stop(submitted) && c.ok()) {
      const int kind = next_kind(gen, open);
      if (kind < 0) break;
      IngressClient::Request req;
      req.workload = kKinds[kind].workload;
      req.count = kKinds[kind].count;
      req.qos = kKinds[kind].qos;
      const i64 t0 = now_ns();
      const u64 id = c.submit(req);
      if (time_calls)
        leg.submit_call.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      ++submitted;
      if (id == 0) {
        finish(leg, v, kind, t0, now_ns(), false, serve::JobStatus::kPending,
               0, 0, 0, name);
        break;
      }
      inflight.push_back({id, kind, t0});
      ++open[class_of(kind)];
    }
    if (inflight.empty()) break;
    bool harvested = false;
    for (usize i = 0; i < inflight.size();) {
      auto r = c.try_take(inflight[i].id);
      if (!r && c.ok()) {
        ++i;
        continue;
      }
      if (r) {
        finish(leg, v, inflight[i].kind, inflight[i].t0, now_ns(),
               r->transport_ok,
               r->status, r->checksum, r->queue_wait_ns, r->service_ns, name);
      } else {  // connection died with this request outstanding
        finish(leg, v, inflight[i].kind, inflight[i].t0, now_ns(), false,
               serve::JobStatus::kPending, 0, 0, 0, name);
      }
      --open[class_of(inflight[i].kind)];
      inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(i));
      harvested = true;
    }
    if (!harvested) std::this_thread::yield();
  }
}

/// The same closed loop straight into ServeNode::submit: the client
/// builds the serve kernel itself (what the server does per SUBMIT) and
/// harvests through JobTicket::poll. Completion is stamped by the
/// ticket's resolve hook, so a client busy building the next kernel does
/// not inflate the RTT of jobs that finished meanwhile.
template <typename Stop>
void direct_leg(serve::ServeNode& node, MixGen& gen, const Verdict& v,
                Leg& leg, Stop stop) {
  struct Pending {
    serve::JobTicket ticket;
    workloads::ServeKernel kernel;
    int kind;
    i64 t0;
    std::shared_ptr<std::atomic<i64>> done_at;
  };
  std::vector<Pending> inflight;
  int open[2] = {0, 0};
  i64 submitted = 0;
  while (true) {
    while (!stop(submitted)) {
      const int kind = next_kind(gen, open);
      if (kind < 0) break;
      const i64 t0 = now_ns();
      std::string err;
      auto k = workloads::make_serve_kernel(kKinds[kind].workload,
                                            kKinds[kind].count, &err);
      ++submitted;
      if (!k) {
        finish(leg, v, kind, t0, now_ns(), false, serve::JobStatus::kPending, 0, 0, 0,
               "direct");
        continue;
      }
      serve::JobSpec spec;
      spec.qos = kKinds[kind].qos;
      spec.count = k->count;
      spec.body = k->body;
      spec.sched = sched::ScheduleSpec::make(sched::ScheduleKind::kDynamic, 0);
      serve::JobTicket t = node.submit(std::move(spec));
      auto done_at = std::make_shared<std::atomic<i64>>(0);
      t.on_resolve([done_at] { done_at->store(now_ns()); });
      inflight.push_back({std::move(t), std::move(*k), kind, t0, done_at});
      ++open[class_of(kind)];
    }
    if (inflight.empty()) break;
    bool harvested = false;
    for (usize i = 0; i < inflight.size();) {
      const serve::JobResult* r = inflight[i].ticket.poll();
      if (r == nullptr) {
        ++i;
        continue;
      }
      const double sum = r->status == serve::JobStatus::kDone
                             ? inflight[i].kernel.checksum()
                             : 0.0;
      // The hook fires just after the state turns done; wait it out.
      i64 t1 = 0;
      while ((t1 = inflight[i].done_at->load()) == 0) std::this_thread::yield();
      finish(leg, v, inflight[i].kind, inflight[i].t0, t1, true, r->status, sum,
             r->queue_wait_ns, r->service_ns, "direct");
      --open[class_of(inflight[i].kind)];
      inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(i));
      harvested = true;
    }
    if (!harvested) std::this_thread::yield();
  }
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Server-side state one job of each kind allocates, estimated from the
/// serve kernels' sizes (slot outputs + capped shared inputs).
i64 estimated_input_bytes() {
  const i64 spmv_rows = 16384;
  const i64 spmv = 17 * spmv_rows * 16 + spmv_rows * 16 + 65536 * 8;
  const i64 stencil = 256 * 256 * 8 + 65536 * 8;
  const i64 ep = 1024 * 8;
  return 3 * ep + spmv + stencil;
}

}  // namespace

void measure_serve_layers(const Options& opts, double seconds, Outcome& out,
                          std::map<std::string, double>& layers) {
  const int nproc =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  const platform::Platform platform = platform::symmetric(nproc);
  World w;
  w.socket_path =
      opts.work_dir + "/serve_" + std::to_string(::getpid()) + ".sock";
  if (!build_world(w, platform)) {
    std::fprintf(stderr, "serve layers: set-up failed\n");
    ++out.attempted;
    ++out.failed;
    out.correct = false;
    return;
  }
  if (opts.corrupt_reference)
    for (double& r : w.reference) r += 1.0;
  std::printf(
      "serve layers: {\"platform\": \"symmetric %d\", \"emulate_amp\": "
      "%s, \"dispatchers\": %d, \"schedule\": \"wire default (dynamic, "
      "chunk 0 = 1)\", \"transport\": \"socket (AF_UNIX), shm ring, direct "
      "ServeNode::submit\", \"credit_window\": %u, \"in_flight\": \"3 "
      "latency EP count 1024 + 1 batch spmv|stencil2d count 65536\", "
      "\"input_bytes_estimate\": %lld}\n",
      nproc, w.node->config().emulate_amp ? "true" : "false",
      w.node->config().dispatchers, kCreditWindow,
      static_cast<long long>(estimated_input_bytes()));

  MixGen gen(opts.seed);
  const Verdict v{&out, w.reference};
  IngressClient& sock = *w.socket_client;
  {  // warm-up: leases, lazily spawned pool workers, kernel allocations
    Leg warm;
    wire_leg(sock, gen, v, warm, false, "warm-up",
             [](i64 n) { return n >= 16; });
  }

  // Four legs in rounds of kRound jobs each, so machine noise hits them
  // alike.
  constexpr i64 kRound = 64;
  Leg plain, traced, shm, direct;
  const i64 end = now_ns() + static_cast<i64>(seconds * 1e9);
  const auto round = [](i64 n) { return n >= kRound; };
  while (now_ns() < end) {
    wire_leg(sock, gen, v, plain, false, "socket", round);
    wire_leg(sock, gen, v, traced, true, "socket-traced", round);
    wire_leg(*w.shm_client, gen, v, shm, false, "shm", round);
    direct_leg(*w.node, gen, v, direct, round);
  }

  u64 rejected = 0;
  for (const serve::QosClass c : {serve::QosClass::kLatency,
                                  serve::QosClass::kNormal,
                                  serve::QosClass::kBatch})
    rejected += w.node->class_stats(c).rejected;
  const ingress::IngressServer::Stats ss = w.server->stats();
  rejected += ss.no_credit_rejects + ss.invalid_rejects;

  const double plain_p50 = median(plain.lat_rtt);
  const double accounted =
      mean(traced.qwait) + mean(traced.service) + mean(traced.submit_call);
  layers["serve.queue_wait_us_p50"] = median(traced.qwait);
  layers["serve.queue_wait_us_p99"] = percentile(traced.qwait, 0.99);
  layers["serve.service_us_p50"] = median(traced.service);
  layers["serve.service_us_p99"] = percentile(traced.service, 0.99);
  layers["serve.direct_rtt_us"] = median(direct.lat_rtt);
  layers["serve.rejected"] = static_cast<double>(rejected);
  layers["ingress.hop_us_p50"] = median(traced.hop);
  layers["ingress.hop_us_p99"] = percentile(traced.hop, 0.99);
  layers["ingress.submit_call_us"] = median(traced.submit_call);
  layers["ingress.shm_rtt_us"] = median(shm.lat_rtt);
  std::printf(
      "serve layers: %lld jobs; latency RTT p50 socket %.2f us (untraced) / "
      "%.2f us (traced), shm %.2f us, direct %.2f us; batch RTT p50 %.3f ms\n"
      "  reconciliation (latency jobs, means): queue wait %.2f + service "
      "%.2f + submit call %.2f = %.1f%% of the %.2f us RTT; the rest is "
      "the ingress hop (server read/decode/kernel build, completion, "
      "encode, transport, client pump)\n",
      static_cast<long long>(plain.jobs + traced.jobs + shm.jobs + direct.jobs),
      plain_p50, median(traced.lat_rtt), median(shm.lat_rtt),
      median(direct.lat_rtt), median(plain.batch_rtt) * 1e-3,
      mean(traced.qwait), mean(traced.service), mean(traced.submit_call),
      100.0 * accounted / mean(traced.lat_rtt), mean(traced.lat_rtt));
}

}  // namespace perfbench
