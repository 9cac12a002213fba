// Workload des_collectives: sim::ScenarioWorld on the 512-node midplane
// (the partition of the paper's Fig 10), the full PAMI stack over
// runtime::DesNetwork, driven from this thread. One block runs a tree
// barrier, a pipelined allreduce, a 10-color cut-through rectangle
// broadcast and a seeded all-to-all, each to quiescence. Host time per
// block gives the simulation rate; the scenarios' virtual times are exact
// and depend only on the seed (which also skews the link latencies).
#include <algorithm>
#include <cstring>
#include <vector>

#include "checks.h"
#include "common.h"
#include "runtime/des_network.h"
#include "runtime/machine.h"
#include "sim/cost_model.h"
#include "sim/scenario.h"

namespace pamibench {
namespace {

using namespace pamix;

constexpr double kSkewPct = 5.0;
constexpr int kBarrierRadix = 4;
constexpr std::size_t kAllreduceBytes = 2048;
constexpr std::size_t kAllreduceChunk = 512;
constexpr std::size_t kBcastBytes = 4096;
constexpr int kColors = 10;
constexpr std::size_t kBcastChunk = 512;
constexpr std::size_t kAllToAllBytes = 512;
constexpr int kAllToAllRounds = 2;

struct Block {
  sim::BarrierStats barrier;
  sim::AllreduceStats allreduce;
  sim::BcastStats bcast;
  sim::TrafficStats alltoall;
  double barrier_host_ns = 0;
  std::uint64_t injected = 0, delivered = 0, events = 0, bytes = 0;
};

Block run_block(sim::ScenarioWorld& w) {
  Block b;
  const obs::PvarSnapshot p0 = pvar_totals();
  const std::uint64_t bytes0 = w.net().payload_bytes_delivered();
  {
    Span s(SpanKind::ScnBarrier);
    obs::Stopwatch sw;
    b.barrier = sim::scenario_tree_barrier(w, kBarrierRadix);
    b.barrier_host_ns = static_cast<double>(sw.elapsed_ns());
  }
  {
    Span s(SpanKind::ScnAllreduce);
    b.allreduce = sim::scenario_allreduce(w, kAllreduceBytes, kAllreduceChunk);
  }
  {
    Span s(SpanKind::ScnBcast);
    b.bcast = sim::scenario_rect_bcast(w, kBcastBytes, kColors, kBcastChunk);
  }
  {
    Span s(SpanKind::ScnAllToAll);
    b.alltoall = sim::scenario_all_to_all(w, kAllToAllBytes, kAllToAllRounds);
  }
  const obs::PvarSnapshot d = pvar_totals() - p0;
  b.injected = d[obs::Pvar::PacketsInjected];
  b.delivered = d[obs::Pvar::SimPackets];
  b.events = d[obs::Pvar::SimEvents];
  b.bytes = w.net().payload_bytes_delivered() - bytes0;
  return b;
}

/// Exact bandwidth of a block: the payload of the allreduce and the
/// broadcast over their summed virtual time. The all-to-all stays out: its
/// seeded shifts set its hop distances, so it would make this figure track
/// the seed rather than the machine (it is reported per layer).
double vt_bw(const Block& b) {
  return static_cast<double>(kAllreduceBytes + kBcastBytes) /
         (b.allreduce.total_us + b.bcast.total_us);
}

/// The checks every block must pass: conservation between MU injection and
/// DES delivery, the barrier's hop floor, the bandwidths' link bounds and
/// the allreduce's values.
void check_block(const Block& b, Result& r, std::uint64_t& failed) {
  const sim::BgqCostModel model;
  const double floor_us = 2.0 * b.barrier.depth * (model.mu_injection_us + model.mu_reception_us);
  for (const std::string& s :
       {check_packet_conservation(b.injected, b.delivered),
        check_latency_floor("barrier virtual latency", b.barrier.latency_us, floor_us),
        check_bw_bound("allreduce virtual bandwidth", b.allreduce.bandwidth_mb_s,
                       model.link_payload_mb_s),
        check_bw_bound("broadcast virtual bandwidth", b.bcast.bandwidth_mb_s,
                       kColors * model.link_payload_mb_s)}) {
    if (!s.empty()) {
      ++failed;
      r.fail(s);
    }
  }
  if (!b.allreduce.values_ok) {
    ++failed;
    r.fail("allreduce: a node ended with a wrong sum");
  }
}

/// Small-geometry checks: every node's broadcast landing buffer is
/// byte-identical, and two fresh worlds with the same seed give identical
/// virtual times for every scenario.
void check_small(std::uint64_t seed, Result& r, std::uint64_t& failed) {
  auto fresh = [seed] {
    sim::ScenarioOptions so;
    so.geom = hw::TorusGeometry({2, 2, 2, 2, 2});
    so.seed = seed;
    so.link_skew_pct = kSkewPct;
    return so;
  };
  std::vector<double> vt[2];
  for (int k = 0; k < 2; ++k) {
    sim::ScenarioWorld w(fresh());
    const Block b = run_block(w);
    check_block(b, r, failed);
    vt[k] = {b.barrier.latency_us, b.allreduce.total_us, b.bcast.total_us, b.alltoall.total_us};
    if (k == 0) {
      std::vector<std::vector<std::byte>> land;
      sim::scenario_rect_bcast(w, kBcastBytes, 2, kBcastChunk, &land);
      bool same = !land.empty();
      for (const auto& l : land) same = same && l.size() == kBcastBytes && l == land.front();
      if (!same) {
        ++failed;
        r.fail("broadcast: landing buffers differ between nodes");
      }
    }
  }
  if (vt[0] != vt[1]) {
    ++failed;
    r.fail("two fresh worlds with the same seed disagree in virtual time");
  }
}

}  // namespace

void run_des_collectives(const Options& opt, double setup_start_s, Result& r) {
  sim::ScenarioOptions so;
  so.seed = opt.seed;
  so.link_skew_pct = kSkewPct;
  sim::ScenarioWorld w(so);
  std::uint64_t failed = 0;

  // Warm-up: the first block on the fresh world also gives the exact
  // figures (a fresh world with this seed always produces them).
  const Block first = run_block(w);
  check_block(first, r, failed);
  const double setup_s = process_seconds() - setup_start_s;
  std::printf("# setup: %.4f s (512-node world + 1 warm-up block)\n", setup_s);

  const std::uint64_t a_before = allocations();
  const obs::PvarSnapshot p0 = pvar_totals();
  Tracer& tracer = Tracer::get();
  Samples t_block, t_barrier, traced_blocks, untraced_blocks;
  double traced_ns = 0.0;
  std::uint64_t packets = 0, events = 0, bytes = 0, blocks = 0;
  obs::Stopwatch run_clock;
  while (run_clock.elapsed_s() < opt.seconds || blocks < 10) {
    const bool traced = opt.trace && blocks % 2 == 1;
    tracer.on = traced;
    obs::Stopwatch sw;
    const Block b = run_block(w);
    const double ns = static_cast<double>(sw.elapsed_ns());
    tracer.on = false;
    check_block(b, r, failed);
    if (b.delivered != first.delivered || b.bytes != first.bytes) {
      ++failed;
      r.fail("a repeated block moved a different number of packets or bytes");
    }
    t_block.add(ns);
    t_barrier.add(b.barrier_host_ns);
    if (opt.trace) {
      (traced ? traced_blocks : untraced_blocks).add(ns);
      if (traced) traced_ns += ns;
    }
    packets += b.delivered;
    events += b.events;
    bytes += b.bytes;
    ++blocks;
  }
  const std::uint64_t allocs = allocations() - a_before;
  const obs::PvarSnapshot dp = pvar_totals() - p0;
  check_small(opt.seed, r, failed);

  r.attempted = blocks * 4;  // scenario calls
  r.failed = failed;
  print_spread("block", t_block, 1e-6, "ms");
  print_spread("barrier_call", t_barrier, 1e-3, "us");
  std::printf("# virtual: barrier %.6f us (depth %d), allreduce %.3f MB/s, bcast %.3f MB/s, "
              "alltoall %.3f MB/s\n",
              first.barrier.latency_us, first.barrier.depth, first.allreduce.bandwidth_mb_s,
              first.bcast.bandwidth_mb_s, first.alltoall.aggregate_mb_s);
  std::printf("# per block: %llu packets, %llu events, %llu payload bytes\n",
              static_cast<unsigned long long>(first.delivered),
              static_cast<unsigned long long>(first.events),
              static_cast<unsigned long long>(first.bytes));

  const double best_block_us = t_block.fastest_tenth() * 1e-3;
  r.e2e("setup_s", setup_s);
  r.e2e("peak_rss_mb", peak_rss_mb());
  r.e2e("rate_mops", static_cast<double>(first.delivered) / best_block_us);
  r.e2e("bw_mb_s", static_cast<double>(first.bytes) / best_block_us);
  // The block is the latency a user of the simulator waits for; a lone
  // barrier call touches every node's context cold and follows the host's
  // memory contention far more than the block does, so it is reported in
  // the spread lines and the trace table only.
  r.e2e("latency_us", best_block_us);
  r.e2e("vt_latency_us", first.barrier.latency_us);
  r.e2e("vt_bw_mb_s", vt_bw(first));

  using obs::Pvar;
  const double pk = static_cast<double>(packets);
  r.layer("host.ns_per_op", t_block.fastest_tenth() / static_cast<double>(first.events));
  r.layer("sim.events_per_packet", ratio(static_cast<double>(events), pk));
  r.layer("sim.allocs_per_packet", ratio(static_cast<double>(allocs), pk));
  r.layer("sim.deliver_retries_per_packet", ratio(dp[Pvar::SimDeliverRetries], pk));
  r.layer("sim.link_max_occupancy", static_cast<double>(w.net().max_link_occupancy()));
  r.layer("proto.eager_per_msg", ratio(dp[Pvar::SendsEager], pk));
  r.layer("proto.rdzv_per_msg", ratio(dp[Pvar::SendsRdzv], pk));
  r.layer("proto.shm_per_msg", ratio(dp[Pvar::SendsShm], pk));
  r.layer("proto.events_per_advance", ratio(dp[Pvar::AdvanceEvents], dp[Pvar::AdvanceCalls]));
  r.layer("core.pool_misses_per_msg", ratio(dp[Pvar::AllocPoolMisses], pk));
  r.layer("hw.mu_packets_per_msg", ratio(dp[Pvar::PacketsInjected], pk));
  r.layer("vt.allreduce_mb_s", first.allreduce.bandwidth_mb_s);
  r.layer("vt.bcast_mb_s", first.bcast.bandwidth_mb_s);
  r.layer("vt.alltoall_mb_s", first.alltoall.aggregate_mb_s);
  if (opt.trace) {
    const double over =
        100.0 * (traced_blocks.fastest_tenth() / untraced_blocks.fastest_tenth() - 1.0);
    std::printf("# trace overhead (block, fastest tenth traced vs untraced): %+.2f %%\n", over);
    r.layer("trace.overhead_pct", over);
    add_span_shares(r, traced_ns);
    tracer.write(opt.out_dir + "/spans-des_collectives-" + std::to_string(opt.seed) + ".csv");
  }
}

}  // namespace pamibench
