#include "sim/rect_bcast.h"

#include <gtest/gtest.h>

#include <set>

namespace pamix::sim {
namespace {

TEST(MulticolorRectBcast, TenColorsOnFullTorus) {
  const hw::TorusGeometry g({4, 4, 4, 4, 2});
  const MulticolorRectBcast b(g, hw::TorusRectangle::whole_machine(g), 0);
  EXPECT_EQ(b.colors(), 10);
  EXPECT_TRUE(b.validate());
}

TEST(MulticolorRectBcast, TreesAreEdgeDisjointOnMidplane) {
  const hw::TorusGeometry g({4, 4, 4, 4, 2});
  const MulticolorRectBcast b(g, hw::TorusRectangle::whole_machine(g), 0);
  // The aggregate 18 GB/s claim requires contention 1 (edge-disjoint).
  EXPECT_EQ(b.max_contention(), 1);
}

TEST(MulticolorRectBcast, SmallTorusStillDisjoint) {
  const hw::TorusGeometry g({2, 2, 2, 2, 2});
  const MulticolorRectBcast b(g, hw::TorusRectangle::whole_machine(g), 0);
  EXPECT_TRUE(b.validate());
  EXPECT_LE(b.max_contention(), 2);
}

TEST(MulticolorRectBcast, SubRectangleFewerColors) {
  const hw::TorusGeometry g({4, 4, 4, 4, 2});
  hw::TorusRectangle plane;
  plane.lo = {0, 0, 1, 1, 0};
  plane.hi = {3, 3, 1, 1, 0};  // 4x4 plane: only A and B usable
  const MulticolorRectBcast b(g, plane, g.node_of({0, 0, 1, 1, 0}));
  EXPECT_EQ(b.colors(), 4);
  EXPECT_TRUE(b.validate());
}

TEST(MulticolorRectBcast, ThroughputNearTenLinksAtPpn1) {
  const hw::TorusGeometry g({4, 4, 4, 4, 2});
  const MulticolorRectBcast b(g, hw::TorusRectangle::whole_machine(g), 0);
  const BgqCostModel m;
  if (b.max_contention() == 1) {
    const double mbps = b.throughput_mb_s(m, 1, 32u << 20);
    // Paper: 16.9 GB/s = 94% of the 18 GB/s ten-link peak.
    EXPECT_NEAR(mbps, 16900.0, 700.0);
  }
}

TEST(MulticolorRectBcast, CopyRateLimitsHigherPpn) {
  const hw::TorusGeometry g({4, 4, 4, 4, 2});
  const MulticolorRectBcast b(g, hw::TorusRectangle::whole_machine(g), 0);
  const BgqCostModel m;
  const double p1 = b.throughput_mb_s(m, 1, 8u << 20);
  const double p4 = b.throughput_mb_s(m, 4, 2u << 20);
  const double p16 = b.throughput_mb_s(m, 16, 1u << 20);
  // Paper: at 4 and 16 processes the copy into per-process buffers
  // determines throughput — strictly below the ppn=1 network-bound rate.
  EXPECT_GT(p1, p4);
  EXPECT_GT(p4, p16);
}

TEST(MulticolorRectBcast, RectBeatsSingleTreeBcastByNearTenX) {
  const hw::TorusGeometry g({4, 4, 4, 4, 2});
  const MulticolorRectBcast b(g, hw::TorusRectangle::whole_machine(g), 0);
  const BgqCostModel m;
  if (b.max_contention() == 1) {
    const double rect = b.throughput_mb_s(m, 1, 32u << 20);
    const double single_tree = m.link_payload_mb_s * 0.96;
    EXPECT_GT(rect / single_tree, 8.5);  // "up to a factor of nearly 10"
  }
}

TEST(MulticolorRectBcast, DeliveryOrderIsRootFirstTopological) {
  const hw::TorusGeometry g({3, 3, 1, 1, 1});
  const MulticolorRectBcast b(g, hw::TorusRectangle::whole_machine(g), 4);
  for (int c = 0; c < b.colors(); ++c) {
    const auto& order = b.delivery_order(c);
    ASSERT_FALSE(order.empty());
    EXPECT_EQ(order.front(), 4);
    // Every node's parent appears earlier in the order.
    std::vector<int> pos(static_cast<std::size_t>(g.node_count()), -1);
    for (std::size_t i = 0; i < order.size(); ++i) {
      pos[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
    }
    for (int n : order) {
      const int p = b.parent(c, n);
      if (p >= 0) {
        EXPECT_LT(pos[static_cast<std::size_t>(p)], pos[static_cast<std::size_t>(n)]);
      }
    }
  }
}

TEST(MulticolorRectBcast, ParentLinkHintsForceTheClaimedWire) {
  // The relays stamp hw::hint_for_link(parent, node, parent_link_index)
  // on every chunk. For that to pin traffic to the tree's claimed wire,
  // the hint must (a) exist for every non-root node, (b) be a single
  // direction bit, and (c) name exactly the claimed link — including on
  // extent-2 rings where +dir and -dir reach the same neighbor and an
  // unhinted packet could collapse two color trees onto one wire.
  for (const hw::TorusGeometry g : {hw::TorusGeometry({2, 2, 2, 1, 1}),
                                    hw::TorusGeometry({3, 2, 1, 1, 1}),
                                    hw::TorusGeometry({4, 4, 2, 1, 1})}) {
    const MulticolorRectBcast b(g, hw::TorusRectangle::whole_machine(g), 0);
    for (int c = 0; c < b.colors(); ++c) {
      for (int n : b.delivery_order(c)) {
        const int p = b.parent(c, n);
        if (p < 0) continue;
        const int link = b.parent_link_index(c, n);
        const hw::TorusLink l = g.link_from_index(link);
        EXPECT_EQ(g.link_index(l), link);  // dense index round-trips
        EXPECT_EQ(l.node, p);
        EXPECT_EQ(g.neighbor(p, l.dim, l.dir), n);
        const std::uint16_t h = hw::hint_for_link(g, p, n, link);
        EXPECT_EQ(h, hw::torus_hint(l.dim, l.dir));
        EXPECT_EQ(h & (h - 1), 0);  // exactly one bit
        EXPECT_NE(h, 0);
        // A link that is not a p->n hop must produce no hint.
        EXPECT_EQ(hw::hint_for_link(g, n, p, link), 0);
      }
      // The relay plan lists every non-root node once, under its parent,
      // in ascending node id, carrying exactly that hint.
      int edges = 0;
      for (int p = 0; p < g.node_count(); ++p) {
        int prev = -1;
        for (const MulticolorRectBcast::Child& kid : b.children(c, p)) {
          EXPECT_EQ(b.parent(c, kid.node), p);
          EXPECT_GT(kid.node, prev);
          EXPECT_EQ(kid.hints, hw::hint_for_link(g, p, kid.node, b.parent_link_index(c, kid.node)));
          prev = kid.node;
          ++edges;
        }
      }
      EXPECT_EQ(edges, g.node_count() - 1);
    }
  }
}

TEST(MulticolorRectBcast, EveryTreeSpansEveryNodeExactlyOnce) {
  const hw::TorusGeometry g({4, 4, 2, 1, 1});
  const MulticolorRectBcast b(g, hw::TorusRectangle::whole_machine(g), 0);
  for (int c = 0; c < b.colors(); ++c) {
    const auto& order = b.delivery_order(c);
    EXPECT_EQ(static_cast<int>(order.size()), g.node_count());
    std::set<int> uniq(order.begin(), order.end());
    EXPECT_EQ(static_cast<int>(uniq.size()), g.node_count());
  }
}

}  // namespace
}  // namespace pamix::sim
