// Ablation — rectangle-broadcast relay chunk size (DESIGN.md §11).
//
// The cut-through relay's one tunable is PAMIX_RECT_CHUNK: small chunks
// keep the deep color trees' pipelines full (fill latency is one chunk
// per hop), large chunks amortize per-message overhead and, at a whole
// color slice, degenerate to store-and-forward. This harness sweeps the chunk
// size over the DES-simulated torus and reports exact virtual-time
// bandwidth per size, so the kRectChunkBytes default is a measured pick,
// not a guess. All numbers are machine-independent (discrete-event
// virtual time) and reproduce bit-for-bit.
//
// Modes:
//   (default)              64-node sweep + 512-node sweep + speedup gate
//   PAMIX_RECTCHUNK_SMOKE  64-node sweep only (CI bench smoke)
//   PAMIX_RECTCHUNK_GATE   512-node default-chunk gate only (check.sh
//                          sim-smoke leg: one streamed run, one
//                          single-path run, assert >= 9x)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/collectives.h"
#include "sim/scenario.h"

namespace {

using namespace pamix;

sim::ScenarioOptions options_for(const hw::TorusGeometry& g) {
  sim::ScenarioOptions o;
  o.geom = g;
  o.seed = 1;
  return o;
}

}  // namespace

int main() {
  const bool smoke = bench::env_iters("PAMIX_RECTCHUNK_SMOKE", 0) > 0;
  const bool gate_only = bench::env_iters("PAMIX_RECTCHUNK_GATE", 0) > 0;
  bench::header("ABLATION — rectangle-broadcast relay chunk size (DES virtual time)");
  bench::JsonResult json;

  // Per-node payloads sized so the smallest sweep point still gives every
  // color dozens of chunks, but a full sweep stays minutes, not hours.
  struct Sweep {
    int nodes;
    std::size_t bytes;
  };
  std::vector<Sweep> sweeps;
  if (!gate_only) {
    sweeps.push_back({64, 512 * 1024});
    if (!smoke) sweeps.push_back({512, 4 * 1024 * 1024});
  }

  const std::vector<std::size_t> chunk_sizes = {256, 512, 1024, 2048, 4096, 16384};
  for (const Sweep& s : sweeps) {
    const hw::TorusGeometry g = bench::geometry_for_nodes(s.nodes);
    std::printf("\n%d nodes (%s), %s payload, 10 colors:\n", s.nodes, g.to_string().c_str(),
                bench::fmt_bytes(s.bytes).c_str());
    std::printf("%-12s %14s %12s %10s\n", "chunk", "mb_s", "total_us", "chunks");
    for (const std::size_t chunk : chunk_sizes) {
      sim::ScenarioWorld w(options_for(g));
      const auto st = sim::scenario_rect_bcast(w, s.bytes, /*colors=*/10, chunk);
      std::printf("%-12zu %14.1f %12.1f %10llu\n", chunk, st.bandwidth_mb_s, st.total_us,
                  static_cast<unsigned long long>(st.chunks));
      char key[64];
      std::snprintf(key, sizeof(key), "rect_chunk%zu_mb_s_%d", chunk, s.nodes);
      json.add(key, st.bandwidth_mb_s);
    }
  }

  // Speedup gate at the paper's smallest 10-color partition: the default
  // chunk must hold the >= 9x multicolor-vs-single-path claim. Run in the
  // full sweep and in PAMIX_RECTCHUNK_GATE mode (check.sh), never in the
  // bench smoke (it is a 512-node run).
  if (!smoke) {
    const hw::TorusGeometry g = bench::geometry_for_nodes(512);
    const std::size_t bytes = 4 * 1024 * 1024;
    sim::ScenarioWorld wm(options_for(g));
    const auto multi =
        sim::scenario_rect_bcast(wm, bytes, /*colors=*/10, pami::coll::kRectChunkBytes);
    sim::ScenarioWorld w1(options_for(g));
    const auto single =
        sim::scenario_rect_bcast(w1, bytes, /*colors=*/1, pami::coll::kRectChunkBytes);
    const double speedup = multi.bandwidth_mb_s / single.bandwidth_mb_s;
    std::printf("\n512-node gate: %s, default %zuB chunks: %.1f vs %.1f MB/s = %.2fx\n",
                bench::fmt_bytes(bytes).c_str(), pami::coll::kRectChunkBytes,
                multi.bandwidth_mb_s, single.bandwidth_mb_s, speedup);
    json.add("rect_gate_speedup_512", speedup);
    if (speedup < 9.0) {
      std::fprintf(stderr, "ablate_rect_chunk: speedup gate failed: %.2fx < 9.0x\n", speedup);
      return 1;
    }
  }

  json.write("BENCH_rectchunk.json");
  bench::obs_finish();
  return 0;
}
