// Scale-out scenario engine — the real PAMI stack on a DES-simulated torus.
//
// A ScenarioWorld is a Machine with the DES transport backend
// (runtime::DesNetwork) plus a lean ClientWorld, driven by ONE host thread
// cooperatively: the paper's 512–4096-node geometries cannot be hosted as
// thread-per-task, so instead of run_spmd the driver interleaves
//
//   1. pump every *dirty* node (whose context has deliveries or posted
//      work) until its software quiesces — Context::advance runs the
//      unchanged proto/mpi/coll layers;
//   2. advance the DES virtual clock one event batch (packet hops,
//      deliveries), which marks receiving nodes dirty again;
//
// until neither side has work. Software runs in zero virtual time, so every
// latency measured here is pure network/cost-model time — exactly what the
// analytic sim/ models predict, which is what the cross-validation tests
// check. Runs are bit-for-bit deterministic for a fixed seed: one thread,
// a stable event queue, and seeded traffic patterns.
//
// The scenarios themselves (tree barrier, pipelined allreduce, multicolor
// rectangle broadcast, hot-spot incast, all-to-all, classroute churn) are
// callback state machines over the public Context API — dispatch handlers
// and completion callbacks re-sending as data lands — so they exercise the
// same code paths as application traffic.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/torus.h"
#include "obs/pvar.h"

namespace pamix::pami {
class ClientWorld;
class Context;
}  // namespace pamix::pami

namespace pamix::runtime {
class Machine;
class DesNetwork;
}  // namespace pamix::runtime

namespace pamix::sim {

struct ScenarioOptions {
  hw::TorusGeometry geom = hw::TorusGeometry::midplane();  // 512 nodes
  std::uint64_t seed = 1;
  double link_skew_pct = 0.0;
  /// Generous eager limit: scenario chunks ride the eager path unless a
  /// scenario deliberately exercises rendezvous.
  std::size_t eager_limit = 64 * 1024;
  /// Lean per-node resources — 4096 nodes of the default Machine sizing
  /// would waste gigabytes on FIFOs no scenario fills.
  std::size_t inj_fifo_capacity = 32;
  std::size_t rec_fifo_capacity = 1024;
  int send_fifos_per_context = 4;
  std::size_t work_queue_capacity = 64;
  std::size_t shm_queue_capacity = 16;
};

class ScenarioWorld {
 public:
  explicit ScenarioWorld(ScenarioOptions opt = {});
  ~ScenarioWorld();

  ScenarioWorld(const ScenarioWorld&) = delete;
  ScenarioWorld& operator=(const ScenarioWorld&) = delete;

  runtime::Machine& machine() { return *machine_; }
  runtime::DesNetwork& net() { return *net_; }
  pami::ClientWorld& world() { return *world_; }
  /// One task per node, one context per task: node id == task id.
  pami::Context& ctx(int node);
  int nodes() const;
  double now_us() const;

  /// Drive software and virtual time to global quiescence.
  void run();

  /// Mark a node's software as runnable (wired as the DES delivery
  /// listener; scenarios may also mark nodes they poked directly).
  void mark_dirty(int node);

  /// Advance one node's software until it quiesces (scenarios drain a
  /// sender after bursts of send() calls, e.g. to clear an Eagain).
  void pump(int node);

  /// Snapshot of this world's private "sim.net" telemetry domain. Each
  /// world owns a fresh domain, so the snapshot doubles as the run delta.
  obs::PvarSnapshot net_pvars() const;

 private:
  ScenarioOptions opt_;
  std::unique_ptr<runtime::Machine> machine_;
  runtime::DesNetwork* net_ = nullptr;
  std::unique_ptr<pami::ClientWorld> world_;
  std::vector<char> dirty_;
  std::vector<int> dirty_queue_;
};

// ---- Scenarios -------------------------------------------------------------
// Each runs to quiescence on the given world and reports virtual-time
// metrics. All traffic is real Context::send / dispatch traffic.

struct BarrierStats {
  double latency_us = 0.0;  // start to last release
  int radix = 0;
  int depth = 0;
};
/// Radix-`radix` rank-tree barrier over all nodes: leaves report up, the
/// root releases down (the software barrier MPI uses off the GI network).
BarrierStats scenario_tree_barrier(ScenarioWorld& w, int radix = 4);

struct AllreduceStats {
  double total_us = 0.0;
  double bandwidth_mb_s = 0.0;  // payload bytes / total time
  std::size_t bytes = 0;
  bool values_ok = false;  // every node ended with the correct global sum
};
/// Chunk-pipelined software allreduce (sum of doubles) up and down a
/// radix-`radix` rank tree: a chunk moves up as soon as every child
/// contributed it, and down as soon as the root completes it.
AllreduceStats scenario_allreduce(ScenarioWorld& w, std::size_t bytes,
                                  std::size_t chunk_bytes = 8192, int radix = 2);

struct BcastStats {
  double total_us = 0.0;
  double bandwidth_mb_s = 0.0;
  int colors = 0;
  std::uint64_t max_link_occupancy = 0;
  std::uint64_t chunks = 0;      // chunk landings across all non-root nodes
};
/// Multicolor rectangle broadcast over the whole machine: the payload is
/// split across `colors` edge-disjoint spanning trees (sim::
/// MulticolorRectBcast), each forwarding chunk-by-chunk — cut-through: an
/// interior node re-injects chunk k toward its children the instant it
/// lands, while chunk k+1 is still on the wire. Every landed chunk is
/// verified byte-for-byte against the root payload at every node.
/// `colors` <= the geometry's color count; 1 reproduces the single-path
/// baseline the paper compares against. `chunk_bytes` must be positive.
/// The trees come from coll::rect_plan, cached on the world geometry, so
/// repeat calls on one world build them once. `payload_out`, when
/// non-null, receives node 1..N-1 landing buffers for verification (small
/// geometries only).
BcastStats scenario_rect_bcast(ScenarioWorld& w, std::size_t bytes, int colors,
                               std::size_t chunk_bytes = 4096,
                               std::vector<std::vector<std::byte>>* payload_out = nullptr);

struct TrafficStats {
  double total_us = 0.0;
  double aggregate_mb_s = 0.0;
  std::uint64_t max_link_occupancy = 0;
  std::uint64_t deliver_retries = 0;
};
/// Hot-spot incast: every node streams `bytes_per_node` at node 0 in
/// single-packet messages.
TrafficStats scenario_hotspot(ScenarioWorld& w, std::size_t bytes_per_node);
/// All-to-all: `rounds` seeded shift permutations, every node sending
/// `bytes_per_peer` to its peer each round.
TrafficStats scenario_all_to_all(ScenarioWorld& w, std::size_t bytes_per_peer, int rounds);

struct ChurnStats {
  int geometries = 0;
  int optimized = 0;   // optimize() calls that got a classroute
  int evictions = 0;   // optimizations that had to evict an LRU route
  int routes_in_use = 0;
  double ping_us_mean = 0.0;  // pt2pt traffic interleaved with the churn
};
/// Classroute exhaustion: create `count` rectangle-eligible sub-geometries
/// and optimize each — far more than the 16 hardware slots, forcing the
/// registry's LRU deoptimize/optimize rotation — with point-to-point
/// traffic interleaved to prove the data path survives the churn.
ChurnStats scenario_classroute_churn(ScenarioWorld& w, int count);

/// Full-stack one-way latency (µs): send() at `src` until the dispatch
/// completion fires at `dst`. Software runs in zero virtual time, so this
/// is the network cost of the chosen protocol (eager or rendezvous per the
/// world's eager limit) — directly comparable to sim::MpiModel's
/// network-only predictions.
double scenario_one_way_us(ScenarioWorld& w, int src, int dst, std::size_t bytes);

}  // namespace pamix::sim
