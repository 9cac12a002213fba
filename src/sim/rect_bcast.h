// Multicolor rectangle broadcast — the 10-color edge-disjoint spanning-tree
// algorithm of Figure 10.
//
// The collective network delivers at most one link's worth of bandwidth
// (~1.8 GB/s).  For rectangular communicators PAMI also implements a
// software broadcast that splits the message into ten slices and pipelines
// each slice down its own spanning tree, one per (dimension, direction)
// color.  When the ten trees are edge-disjoint the root drives all ten of
// its outgoing links simultaneously: 18 GB/s peak, 16.9 GB/s measured
// (94%) at one process per node.
//
// This class *constructs* the trees over the actual torus geometry using an
// interleaved most-constrained-target-first greedy that claims each
// directed link for at most one color, verifies the result (tests assert
// edge-disjointness on the benchmark geometries), and derives the
// achievable throughput from the measured contention, tree depths, and the
// node memory pipeline — so the Figure 10 bench reflects real constructed
// trees, not an assumed ideal.
// It is also the relay plan (children()) that coll::rectangle_broadcast
// and its DES scenario both walk, cached per geometry by coll::rect_plan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hw/torus.h"
#include "sim/cost_model.h"

namespace pamix::sim {

class MulticolorRectBcast {
 public:
  MulticolorRectBcast(const hw::TorusGeometry& geom, const hw::TorusRectangle& rect,
                      int root_node);

  /// Number of colors (2 per torus dimension with extent > 1 inside the
  /// rectangle; the full machine gives 10).
  int colors() const { return static_cast<int>(trees_.size()); }

  /// Maximum number of trees sharing one directed link. 1 = edge-disjoint.
  int max_contention() const { return max_contention_; }

  /// Deepest tree (pipeline fill depth).
  int max_depth() const { return max_depth_; }

  /// Parent of `node` in the tree of `color` (-1 at the root).
  int parent(int color, int node) const {
    return trees_[static_cast<std::size_t>(color)].parent[static_cast<std::size_t>(node)];
  }

  /// Dense index (TorusGeometry::link_index) of the directed link this
  /// tree claimed for parent(node) -> node traffic, -1 at the root. In an
  /// extent-2 ring both directions reach the same neighbor over different
  /// wires, so senders must force this link with torus hint bits —
  /// shortest-path routing alone would collapse the two colors of that
  /// dimension onto one wire.
  int parent_link_index(int color, int node) const {
    return trees_[static_cast<std::size_t>(color)].plink[static_cast<std::size_t>(node)];
  }

  /// One relay edge: the child node and the torus hint bits forcing the
  /// hop onto the link the tree claimed (see parent_link_index).
  struct Child {
    int node = 0;
    std::uint16_t hints = 0;
  };

  /// Children of `node` in `color`'s tree, in ascending node id — the
  /// relays inject in this order, so it fixes DES virtual times.
  const std::vector<Child>& children(int color, int node) const {
    return trees_[static_cast<std::size_t>(color)].kids[static_cast<std::size_t>(node)];
  }

  int root() const { return root_; }  // every tree grows from it

  /// Nodes of `color`'s tree in a valid root-first delivery order.
  const std::vector<int>& delivery_order(int color) const {
    return trees_[static_cast<std::size_t>(color)].order;
  }

  /// Structural validation: every tree spans the rectangle and parents are
  /// single torus hops.
  bool validate() const;

  /// Aggregate broadcast throughput (MB/s) for a message of `bytes` with
  /// `ppn` processes per node (peers copy out of the master's buffer).
  double throughput_mb_s(const BgqCostModel& m, int ppn, std::size_t bytes) const;
  double time_us(const BgqCostModel& m, int ppn, std::size_t bytes) const;

 private:
  struct Tree {
    std::vector<int> parent;   // -1 root, -2 not (yet) in tree
    std::vector<int> plink;    // link index of the parent edge (-1 at root)
    std::vector<int> depth;
    std::vector<int> order;    // insertion order (root first)
    std::vector<std::vector<Child>> kids;  // per node: its child edges
  };

  void build();
  bool in_rect(int node) const;

  hw::TorusGeometry geom_;  // by value: tiny, and keeps lifetimes simple
  hw::TorusRectangle rect_;
  int root_;
  int rect_nodes_ = 0;
  std::vector<Tree> trees_;
  std::vector<std::int8_t> link_claims_;  // trees claiming each directed link
  int max_contention_ = 0;
  int max_depth_ = 0;
};

}  // namespace pamix::sim
