// Scenario engine — the full protocol stack driven over the DES backend.
//
// Two of these tests are the PR's cross-checks: (a) the analytic models
// (sim::MpiModel / sim::CollectiveModel) must agree with what the DES
// transport actually measures at small geometries, and (b) DES runs must
// be bit-for-bit deterministic for a fixed seed.
#include <gtest/gtest.h>

#include <vector>

#include "core/client.h"
#include "core/collectives.h"
#include "runtime/machine.h"
#include "sim/collective_model.h"
#include "sim/mpi_model.h"
#include "sim/scenario.h"

namespace pamix {
namespace {

sim::ScenarioOptions small_world(std::uint64_t seed = 1) {
  sim::ScenarioOptions o;
  o.geom = hw::TorusGeometry({2, 2, 2, 1, 1});
  o.seed = seed;
  return o;
}

TEST(Scenario, BarrierReleasesEveryoneOnce) {
  sim::ScenarioWorld w(small_world());
  const auto st = sim::scenario_tree_barrier(w, /*radix=*/4);
  EXPECT_GT(st.latency_us, 0.0);
  EXPECT_EQ(st.radix, 4);
  EXPECT_EQ(st.depth, 2);
}

TEST(Scenario, BarrierLatencyGrowsWithPartitionSize) {
  auto barrier_us = [](hw::TorusGeometry g) {
    sim::ScenarioOptions o;
    o.geom = std::move(g);
    sim::ScenarioWorld w(o);
    return sim::scenario_tree_barrier(w).latency_us;
  };
  const double t8 = barrier_us(hw::TorusGeometry({2, 2, 2, 1, 1}));
  const double t32 = barrier_us(hw::TorusGeometry({4, 2, 2, 2, 1}));
  const double t64 = barrier_us(hw::TorusGeometry({4, 4, 2, 2, 1}));
  EXPECT_LT(t8, t32);
  EXPECT_LT(t32, t64);
}

TEST(Scenario, AllreduceComputesGlobalSumEverywhere) {
  sim::ScenarioWorld w(small_world());
  const auto st = sim::scenario_allreduce(w, 64 * 1024, /*chunk_bytes=*/4096);
  EXPECT_TRUE(st.values_ok);
  EXPECT_GT(st.bandwidth_mb_s, 0.0);
}

TEST(Scenario, RectBcastDeliversIdenticalPayloadEverywhere) {
  sim::ScenarioWorld w(small_world());
  std::vector<std::vector<std::byte>> payload;
  const auto st = sim::scenario_rect_bcast(w, 32 * 1024, /*colors=*/6, 2048, &payload);
  EXPECT_EQ(st.colors, 6);  // {2,2,2,1,1}: three dims with extent > 1
  ASSERT_EQ(payload.size(), 8u);
  for (std::size_t n = 1; n < payload.size(); ++n) EXPECT_EQ(payload[n], payload[0]);
}

TEST(Scenario, MulticolorBcastBeatsSinglePath) {
  // Even on a small rectangle, splitting across edge-disjoint trees must
  // outrun pushing everything down one path.
  const std::size_t bytes = 256 * 1024;
  sim::ScenarioWorld w1(small_world());
  const double t1 = sim::scenario_rect_bcast(w1, bytes, /*colors=*/1).total_us;
  sim::ScenarioWorld wN(small_world());
  const double tN = sim::scenario_rect_bcast(wN, bytes, /*colors=*/6).total_us;
  EXPECT_LT(tN, t1);
}

TEST(Scenario, RectBcastReusesOneCachedPlan) {
  // The color trees are built and validated once per world, on the world
  // geometry's cache shared with coll::rectangle_broadcast; back-to-back
  // broadcasts walk that one plan and repeat the same traffic. (Virtual
  // times agree to double rounding only: the second run starts at a later
  // clock value. Link packet counts are world-lifetime totals, so the
  // second run exactly doubles the busiest link's.)
  sim::ScenarioWorld w(small_world());
  auto& world_geom = *w.world().geometries().world_geometry();
  const auto plan = pami::coll::rect_plan(world_geom, w.machine().geometry(), 0);
  const auto a = sim::scenario_rect_bcast(w, 48 * 1024, /*colors=*/6, /*chunk_bytes=*/2048);
  const auto b = sim::scenario_rect_bcast(w, 48 * 1024, /*colors=*/6, /*chunk_bytes=*/2048);
  EXPECT_EQ(pami::coll::rect_plan(world_geom, w.machine().geometry(), 0), plan);
  EXPECT_NEAR(a.total_us, b.total_us, 1e-9 * a.total_us);
  EXPECT_NEAR(a.bandwidth_mb_s, b.bandwidth_mb_s, 1e-9 * a.bandwidth_mb_s);
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_EQ(b.max_link_occupancy, 2 * a.max_link_occupancy);
  EXPECT_EQ(a.chunks, b.chunks);
  EXPECT_EQ(a.chunks, 6u * 4u * 7u);  // 4 chunks per color slice, 7 non-root nodes
}

TEST(Scenario, RectBcastSingleColorChunkedDelivers) {
  // One color: the whole payload streams down one tree in 512B chunks —
  // the degenerate case the speedup gates divide by.
  sim::ScenarioWorld w(small_world());
  std::vector<std::vector<std::byte>> payload;
  const auto st =
      sim::scenario_rect_bcast(w, 16 * 1024, /*colors=*/1, /*chunk_bytes=*/512, &payload);
  EXPECT_EQ(st.colors, 1);
  EXPECT_EQ(st.chunks, 32u * 7u);  // 32 chunks landing at each of 7 non-root nodes
  ASSERT_EQ(payload.size(), 8u);
  for (std::size_t n = 1; n < payload.size(); ++n) EXPECT_EQ(payload[n], payload[0]);
}

TEST(Scenario, HotspotCongestsSharedLinks) {
  sim::ScenarioWorld w(small_world());
  const auto hot = sim::scenario_hotspot(w, 8 * 1024);
  EXPECT_GT(hot.max_link_occupancy, 1u);
  sim::ScenarioWorld w2(small_world());
  const auto a2a = sim::scenario_all_to_all(w2, 8 * 1024, /*rounds=*/1);
  // Same per-node byte count, but spread destinations: higher aggregate rate.
  EXPECT_GT(a2a.aggregate_mb_s, hot.aggregate_mb_s);
}

TEST(Scenario, ClassrouteChurnForcesEvictionsAndKeepsDataPathAlive) {
  sim::ScenarioWorld w(small_world());
  const auto st = sim::scenario_classroute_churn(w, 40);
  EXPECT_EQ(st.geometries, 40);
  EXPECT_EQ(st.optimized, 40);
  EXPECT_GT(st.evictions, 0);                            // 14 user slots << 40 geometries
  EXPECT_LE(st.routes_in_use, hw::kClassRoutesPerNode);  // never over-programs
  EXPECT_GT(st.ping_us_mean, 0.0);                       // traffic survived the churn
}

// ---- Cross-validation: analytic models vs DES measurements ----------------

TEST(Scenario, CrossValidationEagerOneWayMatchesMpiModel) {
  sim::ScenarioWorld w(small_world());
  const sim::MpiModel model(w.machine().geometry(), sim::BgqCostModel{});
  for (const std::size_t bytes : {64ul, 2048ul, 16384ul}) {
    const double des = sim::scenario_one_way_us(w, 0, 7, bytes);
    const double predicted = model.eager_network_one_way_us(0, bytes, 0, 7);
    EXPECT_NEAR(des, predicted, predicted * 0.15)
        << "eager " << bytes << "B: des=" << des << " model=" << predicted;
  }
}

TEST(Scenario, CrossValidationRendezvousOneWayMatchesMpiModel) {
  sim::ScenarioOptions o = small_world();
  o.eager_limit = 1024;  // force the rendezvous path for the sizes below
  sim::ScenarioWorld w(o);
  const sim::MpiModel model(w.machine().geometry(), sim::BgqCostModel{});
  for (const std::size_t bytes : {8192ul, 65536ul}) {
    const double des = sim::scenario_one_way_us(w, 0, 7, bytes);
    const double predicted = model.rendezvous_network_one_way_us(0, bytes, 0, 7);
    EXPECT_NEAR(des, predicted, predicted * 0.30)
        << "rdzv " << bytes << "B: des=" << des << " model=" << predicted;
  }
}

TEST(Scenario, CrossValidationBarrierMatchesCollectiveModel) {
  sim::ScenarioOptions o;
  o.geom = hw::TorusGeometry({4, 2, 2, 1, 1});
  sim::ScenarioWorld w(o);
  const sim::CollectiveModel model(w.machine().geometry(), sim::BgqCostModel{});
  const double des = sim::scenario_tree_barrier(w, /*radix=*/4).latency_us;
  const double predicted = model.software_tree_barrier_us(4);
  // The model ignores link contention, so it is a slight underestimate.
  EXPECT_GE(des, predicted * 0.95);
  EXPECT_NEAR(des, predicted, predicted * 0.25)
      << "barrier: des=" << des << " model=" << predicted;
}

// ---- Determinism ----------------------------------------------------------

TEST(Scenario, IdenticalSeedsProduceIdenticalRuns) {
  auto measure = [](std::uint64_t seed) {
    sim::ScenarioOptions o = small_world(seed);
    o.link_skew_pct = 25.0;  // exercise the seeded skew too
    sim::ScenarioWorld w(o);
    sim::scenario_tree_barrier(w);
    sim::scenario_allreduce(w, 32 * 1024);
    sim::scenario_all_to_all(w, 4096, 2);
    return std::make_tuple(w.now_us(), w.net_pvars());
  };
  const auto [t_a, pv_a] = measure(42);
  const auto [t_b, pv_b] = measure(42);
  EXPECT_EQ(t_a, t_b);  // exact: same event sequence, same arithmetic
  for (std::size_t i = 0; i < obs::kPvarCount; ++i) {
    EXPECT_EQ(pv_a.values[i], pv_b.values[i]) << obs::pvar_name(static_cast<obs::Pvar>(i));
  }
  // A different seed must actually change the skewed timings.
  const auto [t_c, pv_c] = measure(43);
  (void)pv_c;
  EXPECT_NE(t_a, t_c);
}

TEST(Scenario, VirtualTimeIsIndependentOfHostTiming) {
  // Two worlds, one cold and one with extra host-side work interleaved
  // (pumps that find nothing to do), must agree exactly.
  sim::ScenarioWorld a(small_world(9));
  const double ta = sim::scenario_one_way_us(a, 0, 5, 4096);
  sim::ScenarioWorld b(small_world(9));
  for (int i = 0; i < 100; ++i) b.pump(i % b.nodes());  // no-op churn
  const double tb = sim::scenario_one_way_us(b, 0, 5, 4096);
  EXPECT_EQ(ta, tb);
}

}  // namespace
}  // namespace pamix
