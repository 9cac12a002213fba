// Workload mpi_pt2pt: 2 nodes x 2 tasks on the functional network, the
// ThreadOptimized library at THREAD_SINGLE with commthreads off, every rank
// driven from this thread through its own Mpi handle with nonblocking calls
// only (a blocking call would spin forever on a peer that never runs).
//
// One block is three timed phases over the same four flows (two same-node
// flows ride the shm protocol, two cross-node flows the MU):
//   small  — a windowed stream of 0 B..4 KB messages (eager), a deep posted
//            receive queue refilled as receives complete, some receives
//            posted as ANY_SOURCE, later arrivals landing unexpected;
//   large  — the same for 16 KB..256 KB messages (rendezvous);
//   pingpong — 0-byte ping-pong between ranks 0 and 2 (different nodes).
// Send buffers are filled and receives verified outside the timed phases.
#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <vector>

#include "checks.h"
#include "common.h"
#include "mpi/mpi.h"
#include "runtime/des_network.h"
#include "runtime/machine.h"
#include "sim/cost_model.h"

namespace pamibench {
namespace {

using namespace pamix;
using mpi::Mpi;
using mpi::Request;
using mpi::Status;

constexpr int kRanks = 4;
/// src -> dst: 0->1 and 2->3 share a node (shm), 1->2 and 3->0 cross it (MU).
constexpr std::array<std::array<int, 2>, kRanks> kFlows = {{{0, 1}, {1, 2}, {2, 3}, {3, 0}}};
constexpr std::size_t kSmallSizes[] = {0, 8, 64, 256, 1024, 4096};
constexpr std::size_t kLargeSizes[] = {16384, 65536, 262144};
constexpr int kSmallPerSize = 24;  // small messages per size per flow per block
constexpr int kLargePerSize = 2;
constexpr int kSendWindow = 64;    // outstanding isends per rank
constexpr int kPostedDepth = 32;   // receives kept posted per rank
constexpr int kPingPongs = 64;     // round trips per block
constexpr int kTags = 4;
constexpr int kPingTag = 100;

struct Msg {
  std::size_t bytes = 0;
  int tag = 0;
  bool any_source = false;
  std::size_t off = 0;  // offset into the flow's send and receive arenas
};

/// One flow's seeded message list (same order every block; the sequence
/// numbers, hence the payloads, change per block).
struct Flow {
  int src = 0;
  int dst = 0;
  std::vector<Msg> msgs;
  std::vector<std::byte> send_arena, recv_arena;
  std::vector<Sent> ledger;
  std::vector<Got> log;
};

std::vector<Flow> make_flows(Rng& rng, const std::size_t* sizes, std::size_t nsizes,
                             int per_size) {
  std::vector<Flow> flows(kRanks);
  for (int f = 0; f < kRanks; ++f) {
    Flow& fl = flows[static_cast<std::size_t>(f)];
    fl.src = kFlows[static_cast<std::size_t>(f)][0];
    fl.dst = kFlows[static_cast<std::size_t>(f)][1];
    // A fixed multiset per flow (sizes x tags x wildcard share); the seed
    // picks its order, so every seed moves the same bytes and tags.
    for (std::size_t s = 0; s < nsizes; ++s) {
      for (int k = 0; k < per_size; ++k) {
        fl.msgs.push_back(Msg{sizes[s], (k + k / 8) % kTags, k % 8 == 7, 0});
      }
    }
    rng.shuffle(fl.msgs);
    std::size_t off = 0;
    for (Msg& m : fl.msgs) {
      m.off = off;
      off += m.bytes;
    }
    fl.send_arena.resize(std::max<std::size_t>(off, 1));
    fl.recv_arena.resize(std::max<std::size_t>(off, 1));
    fl.ledger.reserve(fl.msgs.size());
    fl.log.reserve(fl.msgs.size());
  }
  return flows;
}

/// The cooperative loop of one stream phase: every rank sends on its
/// outgoing flow through a window and keeps `kPostedDepth` receives posted
/// on its incoming flow, testing only the oldest request of each queue.
class StreamPhase {
 public:
  StreamPhase(std::array<Mpi*, kRanks> ranks, std::vector<Flow>& flows)
      : ranks_(ranks), flows_(flows) {
    for (std::size_t f = 0; f < kRanks; ++f) {
      sends_[f].reserve(flows_[f].msgs.size());
      recvs_[f].reserve(flows_[f].msgs.size());
    }
  }

  /// Fill send arenas and ledgers for block sequence base `seq0` (untimed).
  void prepare(std::uint64_t seed, std::uint64_t seq0) {
    for (std::size_t f = 0; f < flows_.size(); ++f) {
      Flow& fl = flows_[f];
      fl.ledger.clear();
      fl.log.clear();
      for (std::size_t k = 0; k < fl.msgs.size(); ++k) {
        const Msg& m = fl.msgs[k];
        const std::uint64_t seq = seq0 + (f << 16) + k;
        fill_pattern(fl.send_arena.data() + m.off, m.bytes, seed, fl.src, seq);
        fl.ledger.push_back(Sent{fl.src, m.tag, seq, m.bytes});
      }
    }
  }

  /// Run the phase to completion. Returns false if it stalled.
  bool run(std::uint64_t& tests) {
    for (auto& v : sends_) v.clear();
    for (auto& v : recvs_) v.clear();
    std::array<std::size_t, kRanks> next_send{}, next_post{}, send_head{}, recv_head{};
    std::size_t remaining = 0;
    for (const Flow& fl : flows_) remaining += 2 * fl.msgs.size();

    std::uint64_t idle = 0;
    while (remaining > 0) {
      bool moved = false;
      for (std::size_t f = 0; f < flows_.size(); ++f) {
        Flow& fl = flows_[f];
        const std::size_t n = fl.msgs.size();
        // Receiver: keep the posted queue deep.
        Mpi& rx = *ranks_[static_cast<std::size_t>(fl.dst)];
        auto& rq = recvs_[f];
        while (next_post[f] < n && next_post[f] - recv_head[f] < kPostedDepth) {
          const Msg& m = fl.msgs[next_post[f]];
          Span s(SpanKind::MpiIrecv);
          rq.push_back(Slot{rx.irecv(fl.recv_arena.data() + m.off, m.bytes,
                                     m.any_source ? mpi::kAnySource : fl.src, m.tag, rx.world()),
                            next_post[f]});
          ++next_post[f];
        }
        // Sender: keep the window full.
        Mpi& tx = *ranks_[static_cast<std::size_t>(fl.src)];
        auto& sq = sends_[f];
        while (next_send[f] < n && next_send[f] - send_head[f] < kSendWindow) {
          const Msg& m = fl.msgs[next_send[f]];
          Span s(SpanKind::MpiIsend);
          sq.push_back(Slot{tx.isend(fl.send_arena.data() + m.off, m.bytes, fl.dst, m.tag,
                                     tx.world()),
                            next_send[f]});
          ++next_send[f];
        }
        // Test the oldest outstanding requests.
        while (recv_head[f] < rq.size()) {
          Status st;
          ++tests;
          bool done;
          {
            Span s(SpanKind::MpiTest);
            done = rx.test(rq[recv_head[f]].req, &st);
          }
          if (!done) break;
          const Msg& m = fl.msgs[rq[recv_head[f]].k];
          Got g{st.source, st.tag, st.bytes, 0, false};
          if (st.bytes >= 8 && st.bytes <= m.bytes) {
            std::memcpy(&g.seq, fl.recv_arena.data() + m.off, 8);
            g.has_seq = true;
          }
          fl.log.push_back(g);
          ++recv_head[f];
          --remaining;
          moved = true;
        }
        while (send_head[f] < sq.size()) {
          ++tests;
          bool done;
          {
            Span s(SpanKind::MpiTest);
            done = tx.test(sq[send_head[f]].req);
          }
          if (!done) break;
          ++send_head[f];
          --remaining;
          moved = true;
        }
      }
      idle = moved ? 0 : idle + 1;
      if (idle > 20'000'000) return false;
    }
    return true;
  }

 private:
  struct Slot {
    Request req;
    std::size_t k;
  };
  std::array<Mpi*, kRanks> ranks_;
  std::vector<Flow>& flows_;
  // Request queues per flow, kept across blocks so the timed phase does not
  // count the benchmark's own allocations.
  std::array<std::vector<Slot>, kRanks> sends_, recvs_;
};

/// Test `r` on `m` until it completes; false on a stall.
bool test_until_done(Mpi& m, Request& r, std::uint64_t& tests) {
  for (std::uint64_t spins = 0;; ++spins) {
    ++tests;
    Span s(SpanKind::MpiTest);
    if (m.test(r)) return true;
    if (spins > 10'000'000) return false;
  }
}

/// 0-byte ping-pong between ranks `a` and `b`: returns false on a stall.
bool pingpong(Mpi& a, Mpi& b, int rank_a, int rank_b, int iters, std::uint64_t& tests) {
  for (int i = 0; i < iters; ++i) {
    Request rb, ra, sa, sb;
    {
      Span s(SpanKind::MpiIrecv);
      rb = b.irecv(nullptr, 0, rank_a, kPingTag, b.world());
    }
    {
      Span s(SpanKind::MpiIrecv);
      ra = a.irecv(nullptr, 0, rank_b, kPingTag, a.world());
    }
    {
      Span s(SpanKind::MpiIsend);
      sa = a.isend(nullptr, 0, rank_b, kPingTag, a.world());
    }
    if (!test_until_done(b, rb, tests)) return false;
    {
      Span s(SpanKind::MpiIsend);
      sb = b.isend(nullptr, 0, rank_a, kPingTag, b.world());
    }
    if (!test_until_done(a, ra, tests) || !test_until_done(a, sa, tests) ||
        !test_until_done(b, sb, tests)) {
      return false;
    }
  }
  return true;
}

/// Exact figures of the same stack on a 2-node DES torus (seeded link
/// skew): the 0-byte half round trip and a 256 KB rendezvous stream, both
/// in virtual time. Deterministic per seed.
struct VirtualFigures {
  double latency_us = 0.0;
  double bw_mb_s = 0.0;
  bool ok = false;
};

VirtualFigures mpi_virtual(std::uint64_t seed) {
  runtime::MachineOptions mo;
  mo.backend = hw::NetBackendKind::Des;
  mo.sim_seed = seed;
  mo.link_skew_pct = 5.0;
  runtime::Machine machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 2, mo);
  mpi::MpiConfig cfg;
  cfg.commthreads = mpi::MpiConfig::Commthreads::ForceOff;
  mpi::MpiWorld world(machine, cfg);
  for (int t = 0; t < kRanks; ++t) world.at(t).init(mpi::ThreadLevel::Single);
  Mpi& a = world.at(0);
  Mpi& b = world.at(2);
  runtime::DesNetwork& net = *machine.des_network();
  VirtualFigures out;
  std::uint64_t tests = 0;
  constexpr int kIters = 16;
  const double t0 = net.now_us();
  if (!pingpong(a, b, 0, 2, kIters, tests)) return out;
  out.latency_us = (net.now_us() - t0) / (2.0 * kIters);

  constexpr int kMsgs = 8;
  constexpr std::size_t kBytes = 262144;
  std::vector<std::byte> src(kBytes * kMsgs), dst(kBytes * kMsgs);
  for (int i = 0; i < kMsgs; ++i) {
    fill_pattern(src.data() + kBytes * static_cast<std::size_t>(i), kBytes, seed, 0,
                 static_cast<std::uint64_t>(i));
  }
  std::vector<Request> rs, ss;
  const double t1 = net.now_us();
  for (int i = 0; i < kMsgs; ++i) {
    rs.push_back(b.irecv(dst.data() + kBytes * static_cast<std::size_t>(i), kBytes, 0, 7,
                         b.world()));
  }
  for (int i = 0; i < kMsgs; ++i) {
    ss.push_back(a.isend(src.data() + kBytes * static_cast<std::size_t>(i), kBytes, 2, 7,
                         a.world()));
  }
  std::uint64_t spins = 0;
  for (std::size_t done = 0; done < rs.size() + ss.size();) {
    done = 0;
    for (Request& r : rs) done += !r || b.test(r) ? 1 : 0;
    for (Request& r : ss) done += !r || a.test(r) ? 1 : 0;
    if (++spins > 10'000'000) return out;
  }
  out.bw_mb_s = static_cast<double>(kBytes * kMsgs) / (net.now_us() - t1);
  out.ok = std::memcmp(src.data(), dst.data(), src.size()) == 0;
  return out;
}

}  // namespace

void run_mpi_pt2pt(const Options& opt, double setup_start_s, Result& r) {
  runtime::MachineOptions mo;
  mo.backend = hw::NetBackendKind::Functional;
  runtime::Machine machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 2, mo);
  mpi::MpiConfig cfg;
  cfg.library = mpi::Library::ThreadOptimized;
  cfg.commthreads = mpi::MpiConfig::Commthreads::ForceOff;
  mpi::MpiWorld world(machine, cfg);
  std::array<Mpi*, kRanks> ranks{};
  for (int t = 0; t < kRanks; ++t) {
    ranks[static_cast<std::size_t>(t)] = &world.at(t);
    world.at(t).init(mpi::ThreadLevel::Single);
  }

  Rng rng(opt.seed);
  std::vector<Flow> small = make_flows(rng, kSmallSizes, std::size(kSmallSizes), kSmallPerSize);
  std::vector<Flow> large = make_flows(rng, kLargeSizes, std::size(kLargeSizes), kLargePerSize);
  StreamPhase small_phase(ranks, small), large_phase(ranks, large);
  std::uint64_t small_msgs = 0, large_msgs = 0, large_bytes = 0;
  for (const Flow& f : small) small_msgs += f.msgs.size();
  for (const Flow& f : large) {
    large_msgs += f.msgs.size();
    for (const Msg& m : f.msgs) large_bytes += m.bytes;
  }

  std::uint64_t block = 0, tests = 0, failed = 0, attempted = 0;
  auto verify = [&](std::vector<Flow>& flows) {
    for (Flow& fl : flows) {
      const std::string d = check_delivery(fl.ledger, fl.log);
      if (!d.empty()) {
        ++failed;
        r.fail("mpi flow " + std::to_string(fl.src) + "->" + std::to_string(fl.dst) + ": " + d);
      }
      for (std::size_t k = 0; k < fl.msgs.size(); ++k) {
        const Msg& m = fl.msgs[k];
        const std::string p = check_payload(fl.recv_arena.data() + m.off, m.bytes, opt.seed,
                                            fl.src, fl.ledger[k].seq);
        if (!p.empty()) {
          ++failed;
          r.fail("mpi payload: " + p);
        }
      }
    }
  };
  // One block; timings in ns land in the three sample sets.
  Samples t_small, t_large, t_ping;
  std::uint64_t allocs_timed = 0;
  auto run_block = [&](bool record) {
    const std::uint64_t seq0 = (block + 1) << 24;
    small_phase.prepare(opt.seed, seq0);
    large_phase.prepare(opt.seed, seq0 + (1u << 20));
    const std::uint64_t a0 = allocations();
    obs::Stopwatch sw;
    const bool ok1 = small_phase.run(tests);
    const double ns1 = static_cast<double>(sw.elapsed_ns());
    sw.reset();
    const bool ok2 = large_phase.run(tests);
    const double ns2 = static_cast<double>(sw.elapsed_ns());
    sw.reset();
    const bool ok3 = pingpong(*ranks[0], *ranks[2], 0, 2, kPingPongs, tests);
    const double ns3 = static_cast<double>(sw.elapsed_ns());
    allocs_timed += allocations() - a0;
    attempted += small_msgs + large_msgs + 2 * kPingPongs;
    if (!ok1 || !ok2 || !ok3) {
      ++failed;
      r.fail("mpi block stalled");
      return false;
    }
    verify(small);
    verify(large);
    ++block;
    if (record) {
      t_small.add(ns1);
      t_large.add(ns2);
      t_ping.add(ns3 / (2.0 * kPingPongs));
    }
    return true;
  };

  // Warm-up: pools, matching bins and request freelists reach steady state.
  for (int i = 0; i < 3; ++i) {
    if (!run_block(false)) return;
  }
  const double setup_s = process_seconds() - setup_start_s;
  std::printf("# setup: %.4f s (world + %llu warm-up blocks)\n", setup_s,
              static_cast<unsigned long long>(block));

  attempted = 0;
  allocs_timed = 0;
  tests = 0;
  std::uint64_t unexpected0 = 0;
  for (Mpi* m : ranks) unexpected0 += m->unexpected_messages();
  const obs::PvarSnapshot p0 = pvar_totals();
  Tracer& tracer = Tracer::get();
  Samples traced_small, untraced_small;
  double traced_ns = 0.0;
  obs::Stopwatch run_clock;
  std::uint64_t measured = 0;
  while (run_clock.elapsed_s() < opt.seconds || measured < 20) {
    const bool traced = opt.trace && (measured % 2 == 1);
    tracer.on = traced;
    const std::size_t before = t_small.size();
    if (!run_block(true)) break;
    tracer.on = false;
    if (opt.trace && t_small.size() > before) {
      const double ns = t_small.v.back() + t_large.v.back() + t_ping.v.back() * 2.0 * kPingPongs;
      (traced ? traced_small : untraced_small).add(t_small.v.back());
      if (traced) traced_ns += ns;
    }
    ++measured;
  }
  const obs::PvarSnapshot dp = pvar_totals() - p0;
  std::uint64_t unexpected = 0;
  for (Mpi* m : ranks) unexpected += m->unexpected_messages();
  unexpected -= unexpected0;

  const VirtualFigures vf = mpi_virtual(opt.seed);
  const VirtualFigures vf2 = mpi_virtual(opt.seed);
  if (!vf.ok) r.fail("mpi DES twin: stalled or corrupted the rendezvous stream");
  if (vf.latency_us != vf2.latency_us || vf.bw_mb_s != vf2.bw_mb_s) {
    r.fail("mpi DES twin: two fresh worlds with the same seed disagree in virtual time");
  }
  // On a 2-node ring the + and - links both join the pair: two links' peak.
  const std::string bw = check_bw_bound("mpi DES rendezvous stream", vf.bw_mb_s,
                                        2.0 * sim::BgqCostModel{}.link_payload_mb_s);
  if (!bw.empty()) r.fail(bw);

  r.attempted = attempted;
  r.failed = failed;
  print_spread("small_phase", t_small, 1e-6, "ms");
  print_spread("large_phase", t_large, 1e-6, "ms");
  print_spread("half_round_trip", t_ping, 1e-3, "us");
  r.e2e("setup_s", setup_s);
  r.e2e("peak_rss_mb", peak_rss_mb());
  r.e2e("rate_mops", static_cast<double>(small_msgs) / (t_small.fastest_tenth() * 1e-3));
  r.e2e("bw_mb_s", static_cast<double>(large_bytes) / (t_large.fastest_tenth() * 1e-3));
  r.e2e("latency_us", t_ping.fastest_tenth() * 1e-3);
  r.e2e("vt_latency_us", vf.latency_us);
  r.e2e("vt_bw_mb_s", vf.bw_mb_s);
  std::printf("# virtual (DES twin): half round trip %.6f us, rendezvous stream %.3f MB/s\n",
              vf.latency_us, vf.bw_mb_s);

  using obs::Pvar;
  const double completed = static_cast<double>(dp[Pvar::MpiIsends] + dp[Pvar::MpiIrecvs]) / 2.0;
  r.layer("host.ns_per_op", t_small.fastest_tenth() / static_cast<double>(small_msgs));
  r.layer("mpi.tests_per_msg", ratio(static_cast<double>(tests), completed));
  r.layer("mpi.match.bin_hits_per_msg", ratio(dp[Pvar::MpiMatchBinHits], completed));
  r.layer("mpi.match.list_scans_per_msg", ratio(dp[Pvar::MpiMatchListScans], completed));
  r.layer("mpi.match.wildcard_fallbacks_per_msg",
          ratio(dp[Pvar::MpiMatchWildcardFallbacks], completed));
  r.layer("mpi.match.unexpected_per_msg", ratio(static_cast<double>(unexpected), completed));
  r.layer("mpi.match.parked_per_msg", ratio(dp[Pvar::MpiMatchParked], completed));
  r.layer("mpi.allocs_per_msg", ratio(static_cast<double>(allocs_timed), completed));
  r.layer("proto.eager_per_msg", ratio(dp[Pvar::SendsEager], completed));
  r.layer("proto.rdzv_per_msg", ratio(dp[Pvar::SendsRdzv], completed));
  r.layer("proto.shm_per_msg", ratio(dp[Pvar::SendsShm], completed));
  const double sends = static_cast<double>(dp[Pvar::SendsEager] + dp[Pvar::SendsRdzv] +
                                           dp[Pvar::SendsShm]);
  r.layer("proto.eagain_per_send", ratio(dp[Pvar::SendEagain], sends));
  r.layer("proto.events_per_advance",
          ratio(dp[Pvar::AdvanceEvents], dp[Pvar::AdvanceCalls]));
  r.layer("core.pool_misses_per_msg", ratio(dp[Pvar::AllocPoolMisses], completed));
  r.layer("hw.mu_packets_per_msg", ratio(dp[Pvar::PacketsInjected], completed));
  if (opt.trace) {
    const double over = 100.0 * (traced_small.fastest_tenth() / untraced_small.fastest_tenth() - 1.0);
    std::printf("# trace overhead (small phase, fastest tenth traced vs untraced): %+.2f %%\n",
                over);
    r.layer("trace.overhead_pct", over);
    add_span_shares(r, traced_ns);
    tracer.write(opt.out_dir + "/spans-mpi_pt2pt-" + std::to_string(opt.seed) + ".csv");
  }
}

}  // namespace pamibench
