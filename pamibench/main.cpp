// pamibench — one program for the repeatable benchmark workloads.
//
//   pamibench --workload <mpi_pt2pt|am_rpc|des_collectives> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//   pamibench --selftest
//
// Every workload drives the whole simulated machine cooperatively from this
// one host thread. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; lines before it are the
// human-readable log (host fingerprint, spread, checks, per-layer table).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>

#include "checks.h"
#include "common.h"
#include "hw/l2_atomics.h"
#include "obs/pvar.h"

// ---- counting allocator --------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
const auto g_process_start = std::chrono::steady_clock::now();
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (std::max<std::size_t>(n, 1) + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) { return operator new(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace pamibench {

std::uint64_t allocations() { return g_allocs.load(std::memory_order_relaxed); }

double process_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - g_process_start)
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void fill_pattern(std::byte* buf, std::size_t bytes, std::uint64_t seed, int sender,
                  std::uint64_t seq) {
  const std::uint64_t key = pattern_key(seed, sender, seq);
  std::size_t j = 0;
  for (; (j + 1) * 8 <= bytes; ++j) {
    const std::uint64_t w = pattern_word(key, j);
    std::memcpy(buf + j * 8, &w, 8);
  }
  for (std::size_t i = j * 8; i < bytes; ++i) buf[i] = pattern_byte(key, i);
  if (bytes >= 8) std::memcpy(buf, &seq, 8);
}

double Samples::fastest_tenth() const {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  const std::size_t k = std::max<std::size_t>(1, s.size() / 10);
  std::partial_sort(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(k), s.end());
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) sum += s[i];
  return sum / static_cast<double>(k);
}

double Samples::quantile(double q) const {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

void print_spread(const char* name, const Samples& s, double scale, const char* unit) {
  std::printf("# spread %-20s blocks=%-6zu q1=%-10.4g median=%-10.4g q3=%-10.4g "
              "fastest_tenth=%-10.4g",
              name, s.size(), s.quantile(0.25) * scale, s.quantile(0.5) * scale,
              s.quantile(0.75) * scale, s.fastest_tenth() * scale);
  // Tail: the highest percentile with ten blocks beyond it (40 blocks or more).
  if (s.size() >= 40) {
    const double q = 1.0 - 10.0 / static_cast<double>(s.size());
    std::printf(" p%.4g=%-10.4g", q * 100.0, s.quantile(q) * scale);
  }
  std::printf(" %s\n", unit);
}

pamix::obs::PvarSnapshot pvar_totals() { return pamix::obs::Registry::instance().totals(); }

// ---- spans ------------------------------------------------------------------------

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::MpiIsend: return "mpi.isend";
    case SpanKind::MpiIrecv: return "mpi.irecv";
    case SpanKind::MpiTest: return "mpi.test";
    case SpanKind::AmCall: return "am.call";
    case SpanKind::AmSend: return "am.send";
    case SpanKind::CtxAdvance: return "proto.advance";
    case SpanKind::AmHandler: return "am.handler";
    case SpanKind::ScnBarrier: return "sim.barrier";
    case SpanKind::ScnAllreduce: return "sim.allreduce";
    case SpanKind::ScnBcast: return "sim.bcast";
    case SpanKind::ScnAllToAll: return "sim.alltoall";
    case SpanKind::Count: break;
  }
  return "?";
}

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

void Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("# trace: could not write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "kind,depth,start_ns,dur_ns\n");
  const std::uint64_t base = kept.empty() ? 0 : kept.front().start_ns;
  for (const Rec& r : kept) {
    std::fprintf(f, "%s,%u,%llu,%u\n", span_name(r.kind), r.depth,
                 static_cast<unsigned long long>(r.start_ns - base), r.dur_ns);
  }
  std::fclose(f);
  std::printf("# trace: %zu spans written to %s\n", kept.size(), path.c_str());
}

void add_span_shares(Result& r, double traced_ns) {
  const Tracer& t = Tracer::get();
  std::printf("# %-16s %12s %14s %14s %10s\n", "span", "calls", "ns/call", "self ns/call",
              "self %");
  for (std::size_t i = 0; i < static_cast<std::size_t>(SpanKind::Count); ++i) {
    const Tracer::Totals& tot = t.totals[i];
    const double share = 100.0 * ratio(static_cast<double>(tot.self_ns), traced_ns);
    const std::string name = std::string(span_name(static_cast<SpanKind>(i))) + "_pct";
    if (tot.calls > 0) {
      std::printf("# %-16s %12llu %14.1f %14.1f %10.2f\n", span_name(static_cast<SpanKind>(i)),
                  static_cast<unsigned long long>(tot.calls),
                  ratio(static_cast<double>(tot.total_ns), static_cast<double>(tot.calls)),
                  ratio(static_cast<double>(tot.self_ns), static_cast<double>(tot.calls)),
                  share);
    }
    r.layer(name, share);
  }
}

// ---- check self-test ----------------------------------------------------------------

bool run_check_selftest(bool verbose) {
  bool ok = true;
  auto expect = [&](const char* name, const std::string& verdict, bool want_pass) {
    const bool passed = verdict.empty();
    const bool good = passed == want_pass;
    ok = ok && good;
    if (verbose || !good) {
      std::printf("# selftest %-40s %s (%s)\n", name, good ? "ok" : "WRONG",
                  passed ? "accepted" : verdict.c_str());
    }
  };

  constexpr std::uint64_t kSeed = 7;
  std::vector<std::byte> buf(300);
  fill_pattern(buf.data(), buf.size(), kSeed, 3, 42);
  expect("payload: intact", check_payload(buf.data(), buf.size(), kSeed, 3, 42), true);
  buf[123] ^= std::byte{0x10};
  expect("payload: flipped byte", check_payload(buf.data(), buf.size(), kSeed, 3, 42), false);

  std::vector<Sent> ledger;
  std::vector<Got> log;
  const std::size_t sizes[] = {0, 64, 8, 300, 16};
  for (std::uint64_t i = 0; i < 5; ++i) {
    const int tag = static_cast<int>(i % 2);
    ledger.push_back({1, tag, 100 + i, sizes[i]});
    log.push_back({1, tag, sizes[i], 100 + i, sizes[i] >= 8});
  }
  expect("delivery: intact", check_delivery(ledger, log), true);
  {
    std::vector<Got> l = log;
    l.erase(l.begin() + 3);
    expect("delivery: dropped message", check_delivery(ledger, l), false);
  }
  {
    std::vector<Got> l = log;
    l.insert(l.begin() + 2, l[1]);
    expect("delivery: duplicated message", check_delivery(ledger, l), false);
  }
  {
    std::vector<Got> l = log;
    std::swap(l[1], l[3]);  // both tag 1 from source 1
    expect("delivery: reordered same-tag pair", check_delivery(ledger, l), false);
  }
  expect("bandwidth: at the bound", check_bw_bound("bw", 1800.0, 1800.0), true);
  expect("bandwidth: above the physical bound", check_bw_bound("bw", 1800.5, 1800.0), false);
  expect("latency: above the hop floor", check_latency_floor("lat", 3.0, 2.9), true);
  expect("latency: below the hop floor", check_latency_floor("lat", 2.8, 2.9), false);
  expect("packets: conserved", check_packet_conservation(1000, 1000), true);
  expect("packets: lost between MU and DES", check_packet_conservation(1000, 999), false);
  return ok;
}

}  // namespace pamibench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pamibench --workload <mpi_pt2pt|am_rpc|des_collectives> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n"
               "       pamibench --selftest\n");
  return 2;
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The benchmark's metric lists (BENCHMARK.json names the same ones).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},   {"rate_mops", "Mop/s"},
    {"bw_mb_s", "MB/s"},        {"latency_us", "us"},    {"vt_latency_us", "us"},
    {"vt_bw_mb_s", "MB/s"},
};
constexpr MetricSpec kPerLayer[] = {
    {"host.ns_per_op", "ns"},
    {"trace.overhead_pct", "%"},
    {"mpi.isend_pct", "%"},
    {"mpi.irecv_pct", "%"},
    {"mpi.test_pct", "%"},
    {"am.call_pct", "%"},
    {"am.send_pct", "%"},
    {"proto.advance_pct", "%"},
    {"am.handler_pct", "%"},
    {"sim.barrier_pct", "%"},
    {"sim.allreduce_pct", "%"},
    {"sim.bcast_pct", "%"},
    {"sim.alltoall_pct", "%"},
    {"mpi.tests_per_msg", "count"},
    {"mpi.match.bin_hits_per_msg", "count"},
    {"mpi.match.list_scans_per_msg", "count"},
    {"mpi.match.wildcard_fallbacks_per_msg", "count"},
    {"mpi.match.unexpected_per_msg", "count"},
    {"mpi.match.parked_per_msg", "count"},
    {"mpi.allocs_per_msg", "count"},
    {"proto.eager_per_msg", "count"},
    {"proto.rdzv_per_msg", "count"},
    {"proto.shm_per_msg", "count"},
    {"proto.eagain_per_send", "count"},
    {"proto.events_per_advance", "count"},
    {"core.pool_misses_per_msg", "count"},
    {"hw.mu_packets_per_msg", "count"},
    {"am.records_per_agg_packet", "count"},
    {"am.flush_timeouts_per_call", "count"},
    {"am.credit_stalls_per_call", "count"},
    {"am.allocs_per_msg", "count"},
    {"sim.events_per_packet", "count"},
    {"sim.allocs_per_packet", "count"},
    {"sim.deliver_retries_per_packet", "count"},
    {"sim.link_max_occupancy", "count"},
    {"vt.allreduce_mb_s", "MB/s"},
    {"vt.bcast_mb_s", "MB/s"},
    {"vt.alltoall_mb_s", "MB/s"},
    {"obs.domains", "count"},
};

template <std::size_t N>
void print_metrics(const MetricSpec (&specs)[N], const std::map<std::string, double>& got) {
  for (const auto& [name, v] : got) {
    bool known = false;
    for (const MetricSpec& m : specs) known = known || name == m.name;
    if (!known) std::printf("# warning: metric %s is not in the benchmark's list\n", name.c_str());
  }
  std::printf("# %-40s %16s %s\n", "metric", "value", "unit");
  for (const MetricSpec& m : specs) {
    auto it = got.find(m.name);
    std::printf("# %-40s %16.6g %s\n", m.name, it == got.end() ? 0.0 : it->second, m.unit);
  }
}

void print_json(const pamibench::Result& r, bool trace) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  auto emit = [](const auto& specs, const std::map<std::string, double>& got) {
    bool first = true;
    for (const MetricSpec& m : specs) {
      auto it = got.find(m.name);
      double v = it == got.end() ? 0.0 : it->second;
      if (!std::isfinite(v)) v = 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", m.name, v,
                  m.unit);
      first = false;
    }
  };
  if (trace) {
    emit(kPerLayer, r.per_layer);
  } else {
    emit(kEndToEnd, r.end_to_end);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pamibench;
  const double t_start = process_seconds();
  Options opt;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--selftest") {
      selftest = true;
    } else if (v == nullptr) {
      return usage();
    } else if (a == "--workload") {
      opt.workload = v, ++i;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10), ++i;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr), ++i;
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0, ++i;
    } else if (a == "--out-dir") {
      opt.out_dir = v, ++i;
    } else {
      return usage();
    }
  }
  if (selftest) {
    const bool ok = run_check_selftest(true);
    std::printf("# selftest: %s\n", ok ? "every check rejects its corrupted case" : "FAILED");
    return ok ? 0 : 1;
  }
  if (!(opt.seconds > 0.0)) return usage();

  void (*run)(const Options&, double, Result&) = nullptr;
  if (opt.workload == "mpi_pt2pt") run = run_mpi_pt2pt;
  if (opt.workload == "am_rpc") run = run_am_rpc;
  if (opt.workload == "des_collectives") run = run_des_collectives;
  if (run == nullptr) return usage();

  std::printf("# host nproc=%u oversubscribed_hint=%d build=%s obs=%s seed=%llu workload=%s "
              "seconds=%g trace=%d\n",
              std::thread::hardware_concurrency(),
              pamix::hw::oversubscribed_hint().load() ? 1 : 0, PAMIBENCH_BUILD_TYPE,
              PAMIX_OBS_ENABLED ? "on" : "off", static_cast<unsigned long long>(opt.seed),
              opt.workload.c_str(), opt.seconds, opt.trace ? 1 : 0);

  if (opt.trace) Tracer::get().kept.reserve(Tracer::kKeep);
  Result r;
  if (!run_check_selftest(false)) r.fail("check self-test: a check accepted a corrupted case");
  try {
    run(opt, t_start, r);
  } catch (const std::exception& e) {
    r.fail(std::string("exception: ") + e.what());
  }
  // The oversubscription hint is set when the first machine is built.
  std::printf("# host oversubscribed_hint after setup=%d\n",
              pamix::hw::oversubscribed_hint().load() ? 1 : 0);
  for (const std::string& f : r.failures) std::printf("# CHECK FAILED: %s\n", f.c_str());
  std::printf("# verdict: %s (%llu attempted, %llu failed)\n",
              r.correct ? "outputs correct" : "OUTPUTS WRONG",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  r.layer("obs.domains", static_cast<double>(pamix::obs::Registry::instance().domain_count()));
  if (opt.trace) {
    print_metrics(kPerLayer, r.per_layer);
  } else {
    print_metrics(kEndToEnd, r.end_to_end);
  }
  std::fflush(stdout);
  if (r.attempted == 0) return 1;  // nothing ran: no result to report
  print_json(r, opt.trace);
  return 0;
}
