// Workload am_rpc: 4 tasks x 2 contexts on the functional network, one
// am::Engine per context (8 engines), all driven from this thread through
// am::Engine::call/send and pami::Context::advance.
//
// One block is three timed phases:
//   loaded   — every engine is an echo server and a windowed client with
//              seeded sizes 0 B..16 KB to seeded remote endpoints;
//   unloaded — one client with one call outstanding (call -> reply latency);
//   incast   — every other engine sends one-way messages to endpoint 0,
//              more than its credits, so flow control engages.
#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <vector>

#include "am/engine.h"
#include "checks.h"
#include "common.h"
#include "core/client.h"
#include "core/context.h"
#include "runtime/des_network.h"
#include "runtime/machine.h"

namespace pamibench {
namespace {

using namespace pamix;

constexpr int kTasks = 4;
constexpr int kCtx = 2;
constexpr int kEngines = kTasks * kCtx;
constexpr std::uint16_t kEcho = 1;
constexpr std::uint16_t kOneWay = 2;
constexpr std::size_t kSizes[] = {0, 32, 256, 2048, 16384};
constexpr int kPerPair = 2;        // loaded calls per (remote endpoint, size) per block
constexpr int kWindow = 16;        // loaded outstanding calls per engine
constexpr int kUnloadedCalls = 16; // sequential calls per block
constexpr std::size_t kUnloadedBytes = 32;
constexpr int kIncastPerEngine = 96;
constexpr std::size_t kIncastBytes = 32;
constexpr std::size_t kArena = 64 * 1024;

/// Counters shared by handlers and reply callbacks (captured by pointer,
/// well inside the inline-callable budget).
struct Tally {
  std::uint64_t calls = 0, completions = 0, served = 0, errors = 0, mismatches = 0;
  std::uint64_t oneway_sent = 0, oneway_received = 0;
  std::array<int, kEngines> outstanding{};
};

struct World {
  runtime::Machine machine;
  pami::ClientWorld clients;
  std::vector<std::unique_ptr<am::Engine>> engines;
  Tally tally;

  World(runtime::MachineOptions mo, am::Engine::Options eo)
      : machine(hw::TorusGeometry({kTasks, 1, 1, 1, 1}), 1, mo),
        clients(machine, [] {
          pami::ClientConfig cc;
          cc.contexts_per_task = kCtx;
          return cc;
        }()) {
    for (int e = 0; e < kEngines; ++e) {
      engines.push_back(std::make_unique<am::Engine>(ctx(e), eo));
      Tally* t = &tally;
      engines.back()->register_handler(kEcho, [t](am::Engine& eng, const am::AmMsg& m) {
        Span s(SpanKind::AmHandler);
        ++t->served;
        eng.reply(m, m.data, m.bytes);
      });
      engines.back()->register_handler(kOneWay, [t](am::Engine&, const am::AmMsg&) {
        Span s(SpanKind::AmHandler);
        ++t->oneway_received;
      });
    }
  }
  pami::Context& ctx(int e) { return clients.client(e / kCtx).context(e % kCtx); }
  static pami::Endpoint ep(int e) {
    return pami::Endpoint{e / kCtx, static_cast<std::int16_t>(e % kCtx)};
  }
  std::size_t advance_all() {
    std::size_t n = 0;
    for (int e = 0; e < kEngines; ++e) {
      Span s(SpanKind::CtxAdvance);
      n += ctx(e).advance();
    }
    return n;
  }
  /// Advance until `done()`; false on a stall.
  template <class Pred>
  bool advance_until(Pred done) {
    for (std::uint64_t spins = 0; !done(); ++spins) {
      advance_all();
      if (spins > 50'000'000) return false;
    }
    return true;
  }
  bool all_quiescent() {
    for (auto& e : engines) {
      if (!e->quiescent()) return false;
    }
    return true;
  }

  /// Issue a call whose reply is compared byte for byte with the request.
  void call(int from, int to, const std::byte* data, std::size_t bytes) {
    Tally* t = &tally;
    const int slot = from;
    ++t->calls;
    ++t->outstanding[static_cast<std::size_t>(slot)];
    Span s(SpanKind::AmCall);
    engines[static_cast<std::size_t>(from)]->call(
        ep(to), kEcho, data, bytes,
        am::ReplyFn([t, slot, data, bytes](pami::Result st, const void* reply, std::size_t n) {
          ++t->completions;
          --t->outstanding[static_cast<std::size_t>(slot)];
          if (st != pami::Result::Success) ++t->errors;
          if (n != bytes || (n > 0 && std::memcmp(reply, data, n) != 0)) ++t->mismatches;
        }));
  }
};

struct Plan {
  // Per engine: the seeded loaded-phase calls (destination, size, offset).
  struct Call {
    int to;
    std::size_t bytes;
    std::size_t off;
  };
  std::array<std::vector<Call>, kEngines> loaded;
  std::vector<Plan::Call> unloaded;  // from engine 0
  std::vector<std::byte> arena;      // request payload source
  std::uint64_t loaded_bytes = 0;    // request + reply payload per block
};

Plan make_plan(std::uint64_t seed) {
  Plan p;
  Rng rng(seed);
  p.arena.resize(kArena + 16384);
  fill_pattern(p.arena.data(), p.arena.size(), seed, 99, 0);
  // Every engine calls each remote endpoint with each size the same number
  // of times; the seed picks the order and the payload offsets.
  for (int e = 0; e < kEngines; ++e) {
    auto& v = p.loaded[static_cast<std::size_t>(e)];
    for (int to = 0; to < kEngines; ++to) {
      if (to / kCtx == e / kCtx) continue;  // every call crosses the network
      for (std::size_t s : kSizes) {
        for (int k = 0; k < kPerPair; ++k) {
          v.push_back({to, s, rng.below(kArena)});
          p.loaded_bytes += 2 * s;
        }
      }
    }
    rng.shuffle(v);
  }
  for (int k = 0; k < kUnloadedCalls; ++k) {
    p.unloaded.push_back({kEngines - 1, kUnloadedBytes, rng.below(kArena)});
  }
  return p;
}

struct BlockTimes {
  double loaded_ns = 0, unloaded_median_ns = 0, incast_ns = 0;
};

/// One block on `w`, phase times in host ns. False on a stall.
bool run_block(World& w, const Plan& p, BlockTimes& bt, std::vector<double>& lat) {
  auto now = [] { return static_cast<double>(obs::now_ns()); };
  Tally& t = w.tally;
  // Loaded.
  double t0 = now();
  std::array<std::size_t, kEngines> next{};
  std::size_t remaining = 0;
  for (const auto& v : p.loaded) remaining += v.size();
  std::uint64_t spins = 0;
  while (remaining > 0 || t.completions < t.calls) {
    for (int e = 0; e < kEngines; ++e) {
      const auto& v = p.loaded[static_cast<std::size_t>(e)];
      std::size_t& i = next[static_cast<std::size_t>(e)];
      while (i < v.size() && t.outstanding[static_cast<std::size_t>(e)] < kWindow) {
        w.call(e, v[i].to, p.arena.data() + v[i].off, v[i].bytes);
        ++i;
        --remaining;
      }
    }
    w.advance_all();
    if (++spins > 50'000'000) return false;
  }
  bt.loaded_ns = now() - t0;

  // Unloaded: one call outstanding at a time.
  lat.clear();
  for (const Plan::Call& c : p.unloaded) {
    const double c0 = now();
    const std::uint64_t want = t.completions + 1;
    w.call(0, c.to, p.arena.data() + c.off, c.bytes);
    if (!w.advance_until([&] { return t.completions >= want; })) return false;
    lat.push_back(now() - c0);
  }
  std::sort(lat.begin(), lat.end());
  bt.unloaded_median_ns = lat[lat.size() / 2];

  // Incast: one-way sends at endpoint 0, past the credit window.
  t0 = now();
  for (int k = 0; k < kIncastPerEngine; ++k) {
    for (int e = 1; e < kEngines; ++e) {
      Span s(SpanKind::AmSend);
      w.engines[static_cast<std::size_t>(e)]->send(World::ep(0), kOneWay,
                                                   p.arena.data() + k, kIncastBytes);
      ++t.oneway_sent;
    }
  }
  if (!w.advance_until([&] { return t.oneway_received >= t.oneway_sent; })) return false;
  bt.incast_ns = now() - t0;
  return true;
}

struct VirtualFigures {
  double latency_us = 0, bw_mb_s = 0;
  bool ok = false;
};

/// Exact figures on a DES torus of the same shape (seeded link skew,
/// aggregation flushed on every poll so no host timer enters), both in
/// virtual time: the unloaded call -> reply latency of the plan's unloaded
/// calls, and the request + reply payload rate of a stream of 16 KB calls
/// with `kWindow` in flight from engine 0 to engine 7. Deterministic per
/// seed.
VirtualFigures am_virtual(std::uint64_t seed, const Plan& p) {
  constexpr int kStreamCalls = 64;
  constexpr std::size_t kStreamBytes = 16384;
  runtime::MachineOptions mo;
  mo.backend = hw::NetBackendKind::Des;
  mo.sim_seed = seed;
  mo.link_skew_pct = 5.0;
  am::Engine::Options eo;
  eo.flush_us = 0;
  World w(mo, eo);
  runtime::DesNetwork& net = *w.machine.des_network();
  Tally& t = w.tally;
  VirtualFigures out;
  std::vector<double> lat;
  for (const Plan::Call& c : p.unloaded) {
    const double c0 = net.now_us();
    const std::uint64_t want = t.completions + 1;
    w.call(0, c.to, p.arena.data() + c.off, c.bytes);
    if (!w.advance_until([&] { return t.completions >= want; })) return out;
    lat.push_back(net.now_us() - c0);
  }
  std::sort(lat.begin(), lat.end());
  out.latency_us = lat[lat.size() / 2];

  const double t0 = net.now_us();
  for (int i = 0; i < kStreamCalls; ++i) {
    if (!w.advance_until([&] { return t.outstanding[0] < kWindow; })) return out;
    w.call(0, kEngines - 1, p.arena.data() + static_cast<std::size_t>(i) * 512, kStreamBytes);
  }
  if (!w.advance_until([&] { return t.completions == t.calls; })) return out;
  out.bw_mb_s = 2.0 * kStreamCalls * kStreamBytes / (net.now_us() - t0);
  out.ok = t.mismatches == 0 && t.errors == 0 && t.served == t.calls;
  return out;
}

}  // namespace

void run_am_rpc(const Options& opt, double setup_start_s, Result& r) {
  runtime::MachineOptions mo;
  mo.backend = hw::NetBackendKind::Functional;
  World w(mo, am::Engine::options_from_env());
  const Plan plan = make_plan(opt.seed);
  std::vector<double> lat;
  lat.reserve(kUnloadedCalls);

  BlockTimes bt;
  for (int i = 0; i < 3; ++i) {
    if (!run_block(w, plan, bt, lat)) {
      r.fail("am warm-up block stalled");
      return;
    }
  }
  const double setup_s = process_seconds() - setup_start_s;
  std::printf("# setup: %.4f s (world + 3 warm-up blocks)\n", setup_s);

  const Tally base = w.tally;
  const obs::PvarSnapshot p0 = pvar_totals();
  Tracer& tracer = Tracer::get();
  Samples t_loaded, t_unloaded, t_incast, traced_loaded, untraced_loaded;
  double traced_ns = 0.0;
  std::uint64_t allocs_loaded = 0, blocks = 0;
  bool stalled = false;
  obs::Stopwatch run_clock;
  while (run_clock.elapsed_s() < opt.seconds || blocks < 20) {
    const bool traced = opt.trace && blocks % 2 == 1;
    tracer.on = traced;
    const std::uint64_t a0 = allocations();
    obs::Stopwatch sw;
    const bool ok = run_block(w, plan, bt, lat);
    const double block_ns = static_cast<double>(sw.elapsed_ns());
    tracer.on = false;
    if (!ok) {
      stalled = true;
      break;
    }
    allocs_loaded += allocations() - a0;
    t_loaded.add(bt.loaded_ns);
    t_unloaded.add(bt.unloaded_median_ns);
    t_incast.add(bt.incast_ns);
    if (opt.trace) {
      (traced ? traced_loaded : untraced_loaded).add(bt.loaded_ns);
      if (traced) traced_ns += block_ns;
    }
    ++blocks;
  }
  // Drain: every engine must end with nothing buffered, parked or owed.
  w.advance_until([&] { return w.all_quiescent(); });
  const obs::PvarSnapshot dp = pvar_totals() - p0;
  const Tally& t = w.tally;
  const std::uint64_t calls = t.calls - base.calls;
  const std::uint64_t oneway = t.oneway_sent - base.oneway_sent;

  r.attempted = calls + oneway;
  r.failed = (t.errors - base.errors) + (t.mismatches - base.mismatches);
  if (stalled) r.fail("am block stalled");
  if (t.mismatches != 0) r.fail("am: a reply differs from its request");
  if (t.errors != 0) r.fail("am: a call completed with an error status");
  for (const std::string& s :
       {check_counts("am handler invocations vs calls", t.served, t.calls),
        check_counts("am completions vs calls", t.completions, t.calls),
        check_counts("am one-way receives vs sends", t.oneway_received, t.oneway_sent)}) {
    if (!s.empty()) r.fail(s);
  }
  if (!w.all_quiescent()) r.fail("am: an engine is not quiescent at the end");

  const VirtualFigures vf = am_virtual(opt.seed, plan);
  const VirtualFigures vf2 = am_virtual(opt.seed, plan);
  if (!vf.ok) r.fail("am DES twin: stalled or wrong replies");
  if (vf.latency_us != vf2.latency_us || vf.bw_mb_s != vf2.bw_mb_s) {
    r.fail("am DES twin: two fresh worlds with the same seed disagree in virtual time");
  }

  print_spread("loaded_phase", t_loaded, 1e-6, "ms");
  print_spread("unloaded_call_reply", t_unloaded, 1e-3, "us");
  print_spread("incast_phase", t_incast, 1e-6, "ms");
  std::printf("# virtual (DES twin): call->reply %.6f us, loaded payload %.3f MB/s\n",
              vf.latency_us, vf.bw_mb_s);
  double per_block_calls = 0;
  for (const auto& v : plan.loaded) per_block_calls += static_cast<double>(v.size());
  r.e2e("setup_s", setup_s);
  r.e2e("peak_rss_mb", peak_rss_mb());
  r.e2e("rate_mops", per_block_calls / (t_loaded.fastest_tenth() * 1e-3));
  r.e2e("bw_mb_s", static_cast<double>(plan.loaded_bytes) / (t_loaded.fastest_tenth() * 1e-3));
  r.e2e("latency_us", t_unloaded.fastest_tenth() * 1e-3);
  r.e2e("vt_latency_us", vf.latency_us);
  r.e2e("vt_bw_mb_s", vf.bw_mb_s);

  using obs::Pvar;
  const double c = static_cast<double>(calls);
  const double msgs = c + static_cast<double>(oneway);
  r.layer("host.ns_per_op", t_loaded.fastest_tenth() / per_block_calls);
  r.layer("proto.eager_per_msg", ratio(dp[Pvar::SendsEager], msgs));
  r.layer("proto.rdzv_per_msg", ratio(dp[Pvar::SendsRdzv], msgs));
  r.layer("proto.shm_per_msg", ratio(dp[Pvar::SendsShm], msgs));
  const double sends = static_cast<double>(dp[Pvar::SendsEager] + dp[Pvar::SendsRdzv] +
                                           dp[Pvar::SendsShm]);
  r.layer("proto.eagain_per_send", ratio(dp[Pvar::SendEagain], sends));
  r.layer("proto.events_per_advance", ratio(dp[Pvar::AdvanceEvents], dp[Pvar::AdvanceCalls]));
  r.layer("core.pool_misses_per_msg", ratio(dp[Pvar::AllocPoolMisses], msgs));
  r.layer("hw.mu_packets_per_msg", ratio(dp[Pvar::PacketsInjected], msgs));
  r.layer("am.records_per_agg_packet", ratio(dp[Pvar::AmAggRecords], dp[Pvar::AmAggPackets]));
  r.layer("am.flush_timeouts_per_call", ratio(dp[Pvar::AmAggFlushTimeout], c));
  r.layer("am.credit_stalls_per_call", ratio(dp[Pvar::AmCreditStalls], c));
  r.layer("am.allocs_per_msg", ratio(static_cast<double>(allocs_loaded), msgs));
  if (opt.trace) {
    const double over =
        100.0 * (traced_loaded.fastest_tenth() / untraced_loaded.fastest_tenth() - 1.0);
    std::printf("# trace overhead (loaded phase, fastest tenth traced vs untraced): %+.2f %%\n",
                over);
    r.layer("trace.overhead_pct", over);
    add_span_shares(r, traced_ns);
    tracer.write(opt.out_dir + "/spans-am_rpc-" + std::to_string(opt.seed) + ".csv");
  }
}

}  // namespace pamibench
