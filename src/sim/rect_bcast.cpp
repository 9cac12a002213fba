#include "sim/rect_bcast.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace pamix::sim {

MulticolorRectBcast::MulticolorRectBcast(const hw::TorusGeometry& geom,
                                         const hw::TorusRectangle& rect, int root_node)
    : geom_(geom), rect_(rect), root_(root_node) {
  rect_nodes_ = rect_.node_count();
  link_claims_.assign(static_cast<std::size_t>(geom_.directed_link_count()), 0);
  build();
  for (Tree& t : trees_) {
    t.kids.assign(t.parent.size(), {});
    for (int v = 0; v < geom_.node_count(); ++v) {  // ascending: sorted lists
      const int p = t.parent[static_cast<std::size_t>(v)];
      if (p < 0) continue;
      t.kids[static_cast<std::size_t>(p)].push_back(
          Child{v, hw::hint_for_link(geom_, p, v, t.plink[static_cast<std::size_t>(v)])});
    }
  }
}

bool MulticolorRectBcast::in_rect(int node) const {
  return rect_.contains(geom_.coords_of(node));
}

void MulticolorRectBcast::build() {
  // One color per (dimension, direction) with extent > 1.  Note that a
  // dimension of size 2 still provides two distinct physical links between
  // the node pair on BG/Q (the E dimension is cabled with both), so both
  // directions remain usable colors.
  for (int d = 0; d < hw::kTorusDims; ++d) {
    const int extent = rect_.hi[d] - rect_.lo[d] + 1;
    if (extent <= 1) continue;
    for (int s = 0; s < 2; ++s) {
      Tree t;
      t.parent.assign(static_cast<std::size_t>(geom_.node_count()), -2);
      t.plink.assign(static_cast<std::size_t>(geom_.node_count()), -1);
      t.depth.assign(static_cast<std::size_t>(geom_.node_count()), 0);
      t.parent[static_cast<std::size_t>(root_)] = -1;
      t.order.push_back(root_);
      trees_.push_back(std::move(t));
    }
  }
  if (trees_.empty()) {
    max_contention_ = 1;  // single-node rectangle: nothing to build
    return;
  }

  // Whether a hop from u along (dim,dir) exists inside the rectangle.
  // Wraparound hops require the rectangle to span the full ring.
  auto hop_ok = [&](int u, hw::Dim dim, hw::Dir dir, int& v) -> bool {
    const int d = static_cast<int>(dim);
    const int extent = rect_.hi[d] - rect_.lo[d] + 1;
    if (extent <= 1) return false;
    if (extent < geom_.size(dim)) {
      const hw::TorusCoords cu = geom_.coords_of(u);
      const int next = cu[d] + (dir == hw::Dir::Plus ? 1 : -1);
      if (next < rect_.lo[d] || next > rect_.hi[d]) return false;
    }
    v = geom_.neighbor(u, dim, dir);
    return v != u;
  };

  // Global count of unclaimed in-links per node: each node needs one
  // distinct in-link per tree, so targets whose unclaimed in-degree is
  // lowest are the scarcest resource — extend into them first.
  std::vector<int> unclaimed_in(static_cast<std::size_t>(geom_.node_count()), 0);
  for (int v = 0; v < geom_.node_count(); ++v) {
    if (!in_rect(v)) continue;
    for (int d = 0; d < hw::kTorusDims; ++d) {
      for (int s = 0; s < 2; ++s) {
        const auto dim = static_cast<hw::Dim>(d);
        const auto dir = s == 0 ? hw::Dir::Plus : hw::Dir::Minus;
        const auto rdir = dir == hw::Dir::Plus ? hw::Dir::Minus : hw::Dir::Plus;
        const int u = geom_.neighbor(v, dim, rdir);
        int chk = -1;
        if (!in_rect(u)) continue;
        if (!hop_ok(u, dim, dir, chk) || chk != v) continue;
        ++unclaimed_in[static_cast<std::size_t>(v)];
      }
    }
  }

  auto claim = [&](Tree& t, int u, int v, int li) {
    ++link_claims_[static_cast<std::size_t>(li)];
    if (link_claims_[static_cast<std::size_t>(li)] == 1) {
      --unclaimed_in[static_cast<std::size_t>(v)];
    }
    t.parent[static_cast<std::size_t>(v)] = u;
    t.plink[static_cast<std::size_t>(v)] = li;
    t.depth[static_cast<std::size_t>(v)] = t.depth[static_cast<std::size_t>(u)] + 1;
    t.order.push_back(v);
  };

  // Interleaved greedy growth, one node per tree per round.  A frontier
  // cursor skips nodes whose out-links are exhausted for this tree (link
  // claims and tree membership only grow, so exhaustion is permanent).
  std::vector<std::size_t> frontier(trees_.size(), 0);
  bool progress = true;
  bool all_done = false;
  while (!all_done && progress) {
    progress = false;
    all_done = true;
    for (std::size_t ti = 0; ti < trees_.size(); ++ti) {
      Tree& t = trees_[ti];
      if (static_cast<int>(t.order.size()) == rect_nodes_) continue;
      all_done = false;
      int best_u = -1, best_v = -1, best_li = -1;
      int best_score = std::numeric_limits<int>::max();
      std::size_t fi = frontier[ti];
      bool frontier_advancing = true;
      for (; fi < t.order.size(); ++fi) {
        const int u = t.order[fi];
        int usable = 0;
        for (int d = 0; d < hw::kTorusDims; ++d) {
          for (int s = 0; s < 2; ++s) {
            const auto dim = static_cast<hw::Dim>(d);
            const auto dir = s == 0 ? hw::Dir::Plus : hw::Dir::Minus;
            int v = -1;
            if (!hop_ok(u, dim, dir, v)) continue;
            if (t.parent[static_cast<std::size_t>(v)] != -2) continue;
            const int li = geom_.link_index(hw::TorusLink{u, dim, dir});
            if (link_claims_[static_cast<std::size_t>(li)] != 0) continue;
            ++usable;
            const int score = unclaimed_in[static_cast<std::size_t>(v)];
            if (score < best_score) {
              best_score = score;
              best_u = u;
              best_v = v;
              best_li = li;
            }
          }
        }
        if (usable == 0 && frontier_advancing) {
          frontier[ti] = fi + 1;  // permanently exhausted for this tree
        } else {
          frontier_advancing = false;
        }
        // Scarcest possible target found: no need to scan further.
        if (best_score <= 1) break;
      }
      if (best_v < 0) continue;  // stuck this round; repair pass handles it
      claim(t, best_u, best_v, best_li);
      progress = true;
    }
  }

  // Repair pass: an incomplete tree takes minimum-claimed links,
  // introducing measured (reported) contention rather than failing.
  for (Tree& t : trees_) {
    while (static_cast<int>(t.order.size()) < rect_nodes_) {
      int best_u = -1, best_v = -1, best_li = -1;
      int best_claims = std::numeric_limits<int>::max();
      for (int u : t.order) {
        for (int d = 0; d < hw::kTorusDims; ++d) {
          for (int s = 0; s < 2; ++s) {
            const auto dim = static_cast<hw::Dim>(d);
            const auto dir = s == 0 ? hw::Dir::Plus : hw::Dir::Minus;
            int v = -1;
            if (!hop_ok(u, dim, dir, v)) continue;
            if (t.parent[static_cast<std::size_t>(v)] != -2) continue;
            const int li = geom_.link_index(hw::TorusLink{u, dim, dir});
            const int claims = link_claims_[static_cast<std::size_t>(li)];
            if (claims < best_claims) {
              best_claims = claims;
              best_u = u;
              best_v = v;
              best_li = li;
            }
          }
        }
      }
      assert(best_v >= 0 && "rectangle not link-connected");
      claim(t, best_u, best_v, best_li);
    }
  }

  // Contention-repair pass: where two trees share a directed link, try to
  // move one tree's child onto a different, unclaimed in-link whose source
  // is already in that tree and not in the child's own subtree (so the
  // tree stays acyclic). A few sweeps resolve the greedy's leftovers and
  // restore full edge-disjointness on the benchmark geometries.
  auto walk_hits = [&](const Tree& t, int from, int target) {
    // True if `target` lies on the root path of `from` (i.e. from is in
    // target's subtree).
    int cur = from;
    while (cur >= 0) {
      if (cur == target) return true;
      cur = t.parent[static_cast<std::size_t>(cur)];
    }
    return false;
  };
  for (int sweep = 0; sweep < 8; ++sweep) {
    bool any_over = false;
    bool repaired = false;
    for (Tree& t : trees_) {
      for (int v : t.order) {
        if (v == root_) continue;
        int li = t.plink[static_cast<std::size_t>(v)];
        if (li < 0 || link_claims_[static_cast<std::size_t>(li)] <= 1) continue;
        any_over = true;
        // Look for an unclaimed alternative in-link from a node already in
        // this tree, outside v's subtree.
        for (int d = 0; d < hw::kTorusDims; ++d) {
          for (int s = 0; s < 2; ++s) {
            const auto dim = static_cast<hw::Dim>(d);
            const auto dir = s == 0 ? hw::Dir::Plus : hw::Dir::Minus;
            const auto rdir = dir == hw::Dir::Plus ? hw::Dir::Minus : hw::Dir::Plus;
            const int w = geom_.neighbor(v, dim, rdir);
            int chk = -1;
            if (!in_rect(w) || t.parent[static_cast<std::size_t>(w)] == -2) continue;
            if (!hop_ok(w, dim, dir, chk) || chk != v) continue;
            const int alt = geom_.link_index(hw::TorusLink{w, dim, dir});
            if (link_claims_[static_cast<std::size_t>(alt)] != 0) continue;
            if (walk_hits(t, w, v)) continue;  // would create a cycle
            --link_claims_[static_cast<std::size_t>(li)];
            ++link_claims_[static_cast<std::size_t>(alt)];
            t.parent[static_cast<std::size_t>(v)] = w;
            t.plink[static_cast<std::size_t>(v)] = alt;
            repaired = true;
            li = -1;
            break;
          }
          if (li < 0) break;
        }
      }
    }
    if (!any_over || !repaired) break;
  }

  // Depths and delivery order must be recomputed after repairs (subtrees
  // moved): rebuild order root-first by repeated scan (small N).
  for (Tree& t : trees_) {
    std::vector<int> order;
    order.reserve(t.order.size());
    order.push_back(root_);
    t.depth[static_cast<std::size_t>(root_)] = 0;
    // Child lists for linear-time topological rebuild.
    std::vector<std::vector<int>> children(static_cast<std::size_t>(geom_.node_count()));
    for (int v : t.order) {
      if (v != root_) children[static_cast<std::size_t>(t.parent[static_cast<std::size_t>(v)])]
          .push_back(v);
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      for (int ch : children[static_cast<std::size_t>(order[i])]) {
        t.depth[static_cast<std::size_t>(ch)] =
            t.depth[static_cast<std::size_t>(order[i])] + 1;
        order.push_back(ch);
      }
    }
    assert(order.size() == t.order.size() && "repair broke tree connectivity");
    t.order = std::move(order);
  }

  max_contention_ = 0;
  for (std::int8_t c : link_claims_) {
    max_contention_ = std::max(max_contention_, static_cast<int>(c));
  }
  if (max_contention_ == 0) max_contention_ = 1;
  max_depth_ = 0;
  for (const Tree& t : trees_) {
    for (int n : t.order) max_depth_ = std::max(max_depth_, t.depth[static_cast<std::size_t>(n)]);
  }
}

bool MulticolorRectBcast::validate() const {
  for (const Tree& t : trees_) {
    if (static_cast<int>(t.order.size()) != rect_nodes_) return false;
    int seen = 0;
    for (int id = 0; id < geom_.node_count(); ++id) {
      const int p = t.parent[static_cast<std::size_t>(id)];
      if (!in_rect(id)) {
        if (p != -2) return false;
        continue;
      }
      ++seen;
      if (id == root_) {
        if (p != -1) return false;
        continue;
      }
      if (p < 0) return false;
      if (geom_.hops(p, id) != 1) return false;  // parent is one torus hop away
    }
    if (seen != rect_nodes_) return false;
  }
  return true;
}

double MulticolorRectBcast::time_us(const BgqCostModel& m, int ppn, std::size_t bytes) const {
  if (trees_.empty()) return m.barrier_sw_us;
  const int ncolors = colors();
  // Peak network rate: every color streams one slice concurrently; link
  // contention divides the per-color rate. 0.94 is the measured software
  // efficiency of the ten concurrent injection pipelines (Fig 10: 16.9 of
  // 18 GB/s).
  const double net_rate =
      ncolors * m.link_payload_mb_s * 0.94 / static_cast<double>(max_contention_);
  // Node memory pipeline: peers copy the arriving data out of the master's
  // buffer, exactly as in the collective-network broadcast.
  const std::size_t working_set = bytes * static_cast<std::size_t>(ppn);
  const double mem_rate = m.copy_bandwidth_mb_s(working_set) / m.touches_bcast(ppn);
  const double rate = std::min(net_rate, mem_rate);
  const double fill = max_depth_ * m.hop_latency_us + m.barrier_sw_us;
  return fill + static_cast<double>(bytes) / rate;
}

double MulticolorRectBcast::throughput_mb_s(const BgqCostModel& m, int ppn,
                                            std::size_t bytes) const {
  return static_cast<double>(bytes) / time_us(m, ppn, bytes);
}

}  // namespace pamix::sim
