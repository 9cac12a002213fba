// Scale-out scenarios — the real protocol stack on the DES-simulated torus
// at the paper's 512–4096-node partitions.
//
// Every row here is *virtual* time from the discrete-event backend
// (PAMIX_NET=des inside a sim::ScenarioWorld), so the numbers are exact
// and machine-independent: the committed BENCH_scale.json baseline
// reproduces bit-for-bit on any host. The paper shapes checked:
//   * barrier latency grows with partition size        (Figure 6's shape)
//   * software allreduce bandwidth vs node count       (Figure 8's shape)
//   * 10-color rectangle broadcast >= 5x single-path   (Figure 10's claim)
// plus adversarial runs the analytic models cannot exercise: hot-spot
// incast, all-to-all, classroute exhaustion under traffic, link-latency
// skew. Also emits the run's sim.* pvar deltas (events, packets, retries,
// virtual ns, link max occupancy).
//
// PAMIX_SCALE_SMOKE=1 keeps only the small calibration geometries (CI);
// their keys carry identical parameters in both modes, so the committed
// full-run baseline checks them exactly. PAMIX_GEOM=AxBxCxDxE appends one
// custom geometry to the sweeps.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/collectives.h"
#include "sim/scenario.h"

namespace {

using namespace pamix;

sim::ScenarioOptions options_for(const hw::TorusGeometry& g, double skew_pct = 0.0) {
  sim::ScenarioOptions o;
  o.geom = g;
  o.seed = 1;
  o.link_skew_pct = skew_pct;
  return o;
}

std::string key(const char* stem, int nodes) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s_%d", stem, nodes);
  return buf;
}

}  // namespace

int main() {
  const bool smoke = bench::env_iters("PAMIX_SCALE_SMOKE", 0) > 0;
  bench::header(smoke ? "SCALE SCENARIOS — DES transport (smoke geometries)"
                      : "SCALE SCENARIOS — DES transport, 512-4096 nodes");
  bench::JsonResult json;
  bench::PvarPhase phase;

  // Calibration geometries run in every mode; the paper partitions only in
  // full mode. PAMIX_GEOM appends one custom shape to the sweeps.
  std::vector<int> sweep = {32, 64};
  if (!smoke) for (int n : {512, 1024, 2048, 4096}) sweep.push_back(n);
  std::vector<hw::TorusGeometry> geoms;
  for (int n : sweep) geoms.push_back(bench::geometry_for_nodes(n));
  if (const char* spec = std::getenv("PAMIX_GEOM"); spec != nullptr && *spec != '\0') {
    geoms.push_back(hw::TorusGeometry::parse(spec, hw::TorusGeometry::midplane()));
  }

  // --- Figure 6 shape: barrier latency vs partition size --------------------
  std::printf("\nTree barrier (radix 4), software tree over the torus:\n");
  std::printf("%-8s %8s %12s %10s\n", "nodes", "depth", "latency_us", "events");
  for (const auto& g : geoms) {
    sim::ScenarioWorld w(options_for(g));
    const auto st = sim::scenario_tree_barrier(w, /*radix=*/4);
    const auto pv = w.net_pvars();
    std::printf("%-8d %8d %12.3f %10llu\n", w.nodes(), st.depth, st.latency_us,
                static_cast<unsigned long long>(pv[obs::Pvar::SimEvents]));
    json.add(key("barrier_us", w.nodes()), st.latency_us);
  }

  // --- Figure 8 shape: software allreduce bandwidth vs node count -----------
  const std::size_t kArBytes = 64 * 1024;
  std::printf("\nPipelined software allreduce, %s of doubles:\n",
              bench::fmt_bytes(kArBytes).c_str());
  std::printf("%-8s %12s %12s %6s\n", "nodes", "total_us", "mb_s", "ok");
  for (const auto& g : geoms) {
    sim::ScenarioWorld w(options_for(g));
    const auto st = sim::scenario_allreduce(w, kArBytes, /*chunk_bytes=*/8192, /*radix=*/2);
    std::printf("%-8d %12.2f %12.1f %6s\n", w.nodes(), st.total_us, st.bandwidth_mb_s,
                st.values_ok ? "yes" : "NO");
    json.add(key("allreduce_mb_s", w.nodes()), st.bandwidth_mb_s);
    if (!st.values_ok) {
      std::fprintf(stderr, "allreduce data corruption at %d nodes\n", w.nodes());
      return 1;
    }
  }

  // --- Figure 10 claim: multicolor rectangle broadcast ----------------------
  // 10 colors need all five torus dimensions > 1: the 512-node midplane is
  // the smallest paper partition with 10 edge-disjoint spanning trees. The
  // 64-node calibration rectangle has 8.
  // Small chunks keep every color tree's pipeline full: with few chunks
  // per color the fill latency of the deep spanning trees dominates and
  // the multicolor advantage is squandered.
  //
  // The 64-node calibration row keeps its historical parameters (512 KiB
  // payload, 1 KiB chunks) so its keys stay bit-for-bit stable across
  // modes. The paper partitions (full mode) run a 4 MiB payload — enough
  // chunks per color that the cut-through pipeline is fully expressed —
  // at the production chunk size (coll::tuning().rect_chunk, so a
  // PAMIX_RECT_CHUNK override flows through).
  const std::size_t kBcBytes = 512 * 1024;
  const std::size_t kBcChunk = 1024;
  std::printf("\nRectangle broadcast, multicolor vs single-path:\n");
  std::printf("%-8s %10s %8s %8s %14s %14s %10s\n", "nodes", "bytes", "chunk", "colors",
              "multi_mb_s", "single_mb_s", "speedup");
  const auto rect_row = [&](int n, std::size_t bytes, std::size_t chunk) {
    const hw::TorusGeometry g = bench::geometry_for_nodes(n);
    sim::ScenarioWorld wm(options_for(g));
    const auto multi = sim::scenario_rect_bcast(wm, bytes, /*colors=*/10, chunk);
    sim::ScenarioWorld w1(options_for(g));
    const auto single = sim::scenario_rect_bcast(w1, bytes, /*colors=*/1, chunk);
    const double speedup = multi.bandwidth_mb_s / single.bandwidth_mb_s;
    std::printf("%-8d %10zu %8zu %8d %14.1f %14.1f %9.2fx\n", n, bytes, chunk, multi.colors,
                multi.bandwidth_mb_s, single.bandwidth_mb_s, speedup);
    json.add(key("rect_multi_mb_s", n), multi.bandwidth_mb_s);
    json.add(key("rect_single_mb_s", n), single.bandwidth_mb_s);
    json.add(key("rect_colors", n), static_cast<std::uint64_t>(multi.colors));
    json.add(key("rect_speedup", n), speedup);
    return speedup;
  };
  rect_row(64, kBcBytes, kBcChunk);
  if (!smoke) {
    const std::size_t kBcBigBytes = 4 * 1024 * 1024;
    const std::size_t chunk = pami::coll::tuning().rect_chunk;
    const double speedup_512 = rect_row(512, kBcBigBytes, chunk);
    rect_row(1024, kBcBigBytes, chunk);
    json.add("rect_chunk_512", static_cast<std::uint64_t>(chunk));

    // Self-gate on the paper claim: with the default chunk the streamed
    // 10-color broadcast must reach 9x over single-path at 512 nodes.
    // Skipped under an explicit chunk override (the ablation sweep
    // legitimately visits chunk sizes that fall short).
    if (chunk == pami::coll::kRectChunkBytes && speedup_512 < 9.0) {
      std::fprintf(stderr, "rect-bcast speedup gate failed at 512 nodes: %.2fx < 9.0x\n",
                   speedup_512);
      return 1;
    }
  }
  // The DES scenarios build their color trees directly, so any fallback
  // counted here means a functional-path regression leaked into this run.
  const std::uint64_t rect_fb =
      obs::Registry::instance().totals()[obs::Pvar::CollRectFallbacks];
  json.add("rect_fallbacks", rect_fb);
  if (rect_fb != 0) {
    std::fprintf(stderr, "unexpected rectangle-broadcast fallbacks: %llu\n",
                 static_cast<unsigned long long>(rect_fb));
    return 1;
  }

  // --- Adversarial runs -----------------------------------------------------
  // Hot-spot incast vs all-to-all at the same per-node byte count, the
  // classroute-exhaustion churn, and a link-latency-skew A/B on the
  // barrier. Full mode runs them on the 512-node midplane too.
  std::vector<int> adv_nodes = {64};
  if (!smoke) adv_nodes.push_back(512);
  for (int n : adv_nodes) {
    const hw::TorusGeometry g = bench::geometry_for_nodes(n);
    std::printf("\nAdversarial runs @ %d nodes:\n", n);

    sim::ScenarioWorld wh(options_for(g));
    const auto hot = sim::scenario_hotspot(wh, /*bytes_per_node=*/4096);
    std::printf("  hot-spot incast : %10.1f MB/s aggregate, link occ %llu, retries %llu\n",
                hot.aggregate_mb_s, static_cast<unsigned long long>(hot.max_link_occupancy),
                static_cast<unsigned long long>(hot.deliver_retries));
    json.add(key("hotspot_mb_s", n), hot.aggregate_mb_s);
    json.add(key("hotspot_max_link", n), hot.max_link_occupancy);
    json.add(key("hotspot_retries", n), hot.deliver_retries);

    sim::ScenarioWorld wa(options_for(g));
    const auto a2a = sim::scenario_all_to_all(wa, /*bytes_per_peer=*/512, /*rounds=*/2);
    std::printf("  all-to-all      : %10.1f MB/s aggregate, link occ %llu\n",
                a2a.aggregate_mb_s, static_cast<unsigned long long>(a2a.max_link_occupancy));
    json.add(key("alltoall_mb_s", n), a2a.aggregate_mb_s);
    json.add(key("alltoall_max_link", n), a2a.max_link_occupancy);

    sim::ScenarioWorld wc(options_for(g));
    const auto churn = sim::scenario_classroute_churn(wc, /*count=*/40);
    std::printf("  classroute churn: %d geometries, %d optimized, %d evictions, ping %.3f us\n",
                churn.geometries, churn.optimized, churn.evictions, churn.ping_us_mean);
    json.add(key("churn_evictions", n), static_cast<std::uint64_t>(churn.evictions));
    json.add(key("churn_ping_us", n), churn.ping_us_mean);
    if (churn.optimized != churn.geometries) {
      std::fprintf(stderr, "classroute churn lost optimizations at %d nodes\n", n);
      return 1;
    }

    sim::ScenarioWorld w0(options_for(g));
    const double flat_us = sim::scenario_tree_barrier(w0).latency_us;
    sim::ScenarioWorld ws(options_for(g, /*skew_pct=*/25.0));
    const double skew_us = sim::scenario_tree_barrier(ws).latency_us;
    std::printf("  25%% link skew   : barrier %.3f us vs %.3f us flat (%.3fx)\n", skew_us,
                flat_us, skew_us / flat_us);
    json.add(key("skew_barrier_ratio", n), skew_us / flat_us);
  }

  // --- sim.* pvar deltas for the whole run ----------------------------------
  const obs::PvarSnapshot d = phase.delta();
  std::printf("\nsim.* totals: events=%llu packets=%llu retries=%llu virtual_ns=%llu\n",
              static_cast<unsigned long long>(d[obs::Pvar::SimEvents]),
              static_cast<unsigned long long>(d[obs::Pvar::SimPackets]),
              static_cast<unsigned long long>(d[obs::Pvar::SimDeliverRetries]),
              static_cast<unsigned long long>(d[obs::Pvar::SimVirtualNs]));
  json.add("sim_events", d[obs::Pvar::SimEvents]);
  json.add("sim_packets", d[obs::Pvar::SimPackets]);
  json.add("sim_deliver_retries", d[obs::Pvar::SimDeliverRetries]);
  json.add("sim_virtual_ns", d[obs::Pvar::SimVirtualNs]);
  json.add("sim_link_max_occupancy", d[obs::Pvar::SimLinkMaxOccupancy]);

  json.write("BENCH_scale.json");
  bench::obs_finish();
  return 0;
}
