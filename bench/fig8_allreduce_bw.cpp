// Figure 8 — MPI_Allreduce (MPI_DOUBLE, MPI_SUM) throughput via the
// collective network on 2048 nodes, message-size sweep, ppn in {1,4,16}.
//
//   Paper anchors: 1704 MB/s (95% of peak) at ppn=1 / 8MB; 1693 MB/s at
//   ppn=4 / 2MB; 1643 MB/s at ppn=16 / 512KB. Beyond the peak the send
//   and receive buffers spill out of the 32MB L2 and DDR throughput
//   governs — the curves roll off, earliest at ppn=16.
#include <cstdio>

#include "bench_util.h"
#include "mpi/mpi.h"
#include "sim/collective_model.h"

int main() {
  using namespace pamix;
  bench::header("FIGURE 8 — Allreduce throughput on 2048 nodes (MB/s)");

  const sim::CollectiveModel m(bench::paper_2048(), sim::BgqCostModel{});
  std::printf("%-10s %12s %12s %12s\n", "size", "ppn=1", "ppn=4", "ppn=16");
  std::printf("--------------------------------------------------\n");
  for (std::size_t bytes = 8; bytes <= (32u << 20); bytes *= 4) {
    std::printf("%-10s %12.0f %12.0f %12.0f\n", bench::fmt_bytes(bytes).c_str(),
                m.allreduce_throughput_mb_s(1, bytes), m.allreduce_throughput_mb_s(4, bytes),
                m.allreduce_throughput_mb_s(16, bytes));
  }
  std::printf("\nPaper anchors: 1704 @ppn1/8MB (95%% of peak), 1693 @ppn4/2MB,\n"
              "1643 @ppn16/512KB; L2-spill rolloff at larger sizes, earliest at ppn=16.\n");
  std::printf("\nPeaks found by the model:\n");
  for (int ppn : {1, 4, 16}) {
    double best = 0;
    std::size_t best_size = 0;
    for (std::size_t bytes = 4096; bytes <= (32u << 20); bytes *= 2) {
      const double v = m.allreduce_throughput_mb_s(ppn, bytes);
      if (v > best) {
        best = v;
        best_size = bytes;
      }
    }
    std::printf("  ppn=%-3d peak %7.0f MB/s at %s\n", ppn, best,
                bench::fmt_bytes(best_size).c_str());
  }

  // Functional leg: the real shared-address allreduce (parallel local
  // math, slice pipelining, collective-network engine) on a 4-node
  // machine.
  const int kIters = bench::env_iters("PAMIX_FIG8_ITERS", 3);
  std::printf("\nFunctional host run (real slice-pipelined allreduce, 4 nodes x 2 ppn, %d iters):\n",
              kIters);
  bench::JsonResult json;
  json.add("iters", static_cast<std::uint64_t>(kIters));
  runtime::Machine machine(hw::TorusGeometry({2, 2, 1, 1, 1}), 2);
  mpi::MpiWorld world(machine, mpi::MpiConfig{});
  const std::size_t count = 1u << 18;  // 2MB: several pipeline slices
  double mbps = 0;
  obs::PvarSnapshot delta;
  machine.run_spmd([&](int task) {
    mpi::Mpi& mp = world.at(task);
    mp.init(mpi::ThreadLevel::Single);
    const mpi::Comm w = mp.world();
    std::vector<double> in(count, 1.0), out(count);
    mp.allreduce(in.data(), out.data(), count, mpi::Type::Double, mpi::Op::Add, w);
    mp.barrier(w);
    bench::PvarPhase phase;
    bench::Stopwatch sw;
    for (int i = 0; i < kIters; ++i) {
      mp.allreduce(in.data(), out.data(), count, mpi::Type::Double, mpi::Op::Add, w);
    }
    mp.barrier(w);
    if (mp.rank(w) == 0) {
      mbps = kIters * count * sizeof(double) / sw.elapsed_us();
      delta = phase.delta();
    }
    if (out[count / 2] != 8.0) std::printf("  VERIFICATION FAILED\n");
    mp.finalize();
  });
  std::printf("  2MB double-sum verified on all ranks; %8.0f MB/s; overlap_occupancy=%llu\n",
              mbps, static_cast<unsigned long long>(delta[obs::Pvar::CollOverlapBytes]));
  json.add("allreduce_2mb_mb_s", mbps);
  json.add("coll.slices", delta[obs::Pvar::CollSlices]);
  json.add("coll.net_rounds", delta[obs::Pvar::CollNetRounds]);
  json.add("coll.overlap_occupancy", delta[obs::Pvar::CollOverlapBytes]);
  json.add("model_peak_ppn1_mb_s", m.allreduce_throughput_mb_s(1, 8u << 20));
  json.write("BENCH_fig8.json");
  bench::obs_finish();
  return 0;
}
