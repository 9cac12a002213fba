// Figure 9 — MPI_Bcast throughput via the collective network on 2048
// nodes, message-size sweep, ppn in {1,4,16}.
//
//   Paper anchors: 1728 MB/s (96% of peak) at ppn=1 / 32MB; 1722 MB/s at
//   ppn=4 / 4MB; 1701 MB/s at ppn=16 / 1MB; saturation/rolloff at large
//   sizes where the broadcast data spills the L2 and peer copy-out runs
//   at DDR rates.
//
// The functional 4MB host leg runs the slice pipeline (round k in flight
// while peers copy out slice k-1); BENCH_fig9.json carries its rate
// alongside the coll.* pvar deltas.
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "mpi/mpi.h"
#include "sim/collective_model.h"

namespace {

using namespace pamix;

/// 4MB broadcast from a non-node-0 root on 4 nodes x 2 ppn. Returns MB/s;
/// `measured_delta` receives the measured-phase pvar delta.
double host_bcast_4mb_mb_s(int iters, obs::PvarSnapshot* measured_delta) {
  runtime::Machine machine(hw::TorusGeometry({2, 2, 1, 1, 1}), 2);
  mpi::MpiWorld world(machine, mpi::MpiConfig{});
  const std::size_t bytes = 4u << 20;
  double mbps = 0;
  obs::PvarSnapshot delta;
  machine.run_spmd([&](int task) {
    mpi::Mpi& mp = world.at(task);
    mp.init(mpi::ThreadLevel::Single);
    const mpi::Comm w = mp.world();
    std::vector<std::uint8_t> buf(bytes, mp.rank(w) == 3 ? 0x42 : 0x00);
    mp.bcast(buf.data(), bytes, 3, w);  // warm-up: staging slices settle
    mp.barrier(w);
    bench::PvarPhase phase;
    bench::Stopwatch sw;
    for (int i = 0; i < iters; ++i) mp.bcast(buf.data(), bytes, 3, w);
    mp.barrier(w);
    if (mp.rank(w) == 0) {
      mbps = iters * static_cast<double>(bytes) / sw.elapsed_us();
      delta = phase.delta();
    }
    if (buf[bytes - 1] != 0x42) std::printf("  VERIFICATION FAILED at rank %d\n", mp.rank(w));
    mp.finalize();
  });
  if (measured_delta != nullptr) *measured_delta = delta;
  return mbps;
}

}  // namespace

int main() {
  bench::header("FIGURE 9 — Broadcast throughput via collective network, 2048 nodes (MB/s)");

  const sim::CollectiveModel m(bench::paper_2048(), sim::BgqCostModel{});
  std::printf("%-10s %12s %12s %12s\n", "size", "ppn=1", "ppn=4", "ppn=16");
  std::printf("--------------------------------------------------\n");
  for (std::size_t bytes = 512; bytes <= (32u << 20); bytes *= 4) {
    std::printf("%-10s %12.0f %12.0f %12.0f\n", bench::fmt_bytes(bytes).c_str(),
                m.bcast_throughput_mb_s(1, bytes), m.bcast_throughput_mb_s(4, bytes),
                m.bcast_throughput_mb_s(16, bytes));
  }
  std::printf("\nPaper anchors: 1728 @ppn1/32MB (96%%), 1722 @ppn4/4MB, 1701 @ppn16/1MB.\n");
  std::printf("\nPeaks found by the model:\n");
  for (int ppn : {1, 4, 16}) {
    double best = 0;
    std::size_t best_size = 0;
    for (std::size_t bytes = 4096; bytes <= (32u << 20); bytes *= 2) {
      const double v = m.bcast_throughput_mb_s(ppn, bytes);
      if (v > best) {
        best = v;
        best_size = bytes;
      }
    }
    std::printf("  ppn=%-3d peak %7.0f MB/s at %s\n", ppn, best,
                bench::fmt_bytes(best_size).c_str());
  }

  // Functional leg: real collective-network broadcast with shared-address
  // peer copy-out on a 4-node x 2-ppn machine.
  const int kIters = bench::env_iters("PAMIX_FIG9_ITERS", 3);
  std::printf("\nFunctional host run (real cnet bcast + shared-address copy, 4x2, %d iters):\n",
              kIters);
  obs::PvarSnapshot delta;
  const double mbps = host_bcast_4mb_mb_s(kIters, &delta);
  const std::uint64_t occupancy = delta[obs::Pvar::CollOverlapBytes];
  std::printf("  slice pipeline: %8.0f MB/s\n", mbps);
  std::printf("  coll pvars: slices=%llu net_rounds=%llu overlap_occupancy=%llu : %s\n",
              static_cast<unsigned long long>(delta[obs::Pvar::CollSlices]),
              static_cast<unsigned long long>(delta[obs::Pvar::CollNetRounds]),
              static_cast<unsigned long long>(occupancy),
              occupancy > 0 ? "OK" : "NO OVERLAP (unexpected)");

  bench::JsonResult json;
  json.add("iters", static_cast<std::uint64_t>(kIters));
  json.add("bcast_4mb_mb_s", mbps);
  json.add("coll.slices", delta[obs::Pvar::CollSlices]);
  json.add("coll.net_rounds", delta[obs::Pvar::CollNetRounds]);
  json.add("coll.overlap_occupancy", occupancy);
  json.add("model_peak_ppn1_mb_s", m.bcast_throughput_mb_s(1, 32u << 20));
  json.write("BENCH_fig9.json");

  bench::obs_finish();
  return 0;
}
