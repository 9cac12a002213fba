// Figure 7 — MPI_Allreduce (MPI_DOUBLE, MPI_SUM) latency for one double,
// node sweep to 2048, ppn in {1, 4, 16}.
//
//   Paper anchors at 2048 nodes: 5.5 us (ppn1), 5.0 us (ppn4), 5.3 us
//   (ppn16) — note the dip at ppn=4: the shared-address protocol lets
//   node peers take over the result copy-out, shortening the master's
//   critical path, while larger ppn grows the local combine again.
//
// Host phases beyond the latency sweep:
//   * a 2MB pipelined allreduce (Figure 4: network round k concurrent
//     with local math of k+1) with its coll.* pvar deltas;
//   * a software-path (non-optimized geometry) steady-state phase whose
//     pool-miss delta must be zero under PAMIX_BENCH_STRICT_ALLOC.
//
// With PAMIX_OBS=on each host run also prints its pvar delta (collective
// rounds, sends, advance calls) and main exports trace rings to
// PAMIX_TRACE_FILE. Results land in BENCH_fig7.json.
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "mpi/mpi.h"
#include "sim/collective_model.h"

namespace {

using namespace pamix;

double host_allreduce_us(int ppn, int iters) {
  runtime::Machine machine(hw::TorusGeometry({2, 2, 1, 1, 1}), ppn);
  mpi::MpiWorld world(machine, mpi::MpiConfig{});
  double us = 0;
  machine.run_spmd([&](int task) {
    mpi::Mpi& mp = world.at(task);
    mp.init(mpi::ThreadLevel::Single);
    const mpi::Comm w = mp.world();
    double in = task, out = 0;
    for (int i = 0; i < 50; ++i) {
      mp.allreduce(&in, &out, 1, mpi::Type::Double, mpi::Op::Add, w);
    }
    bench::Stopwatch sw;
    for (int i = 0; i < iters; ++i) {
      mp.allreduce(&in, &out, 1, mpi::Type::Double, mpi::Op::Add, w);
    }
    if (mp.rank(w) == 0) us = sw.elapsed_us() / iters;
    mp.finalize();
  });
  return us;
}

/// 2MB allreduce on 4 nodes x 2 ppn through the slice pipeline; returns
/// MB/s and the measured-phase pvar delta so the caller can report
/// slice/round/occupancy counters.
double host_allreduce_2mb_mb_s(int iters, obs::PvarSnapshot* measured_delta) {
  runtime::Machine machine(hw::TorusGeometry({2, 2, 1, 1, 1}), 2);
  mpi::MpiWorld world(machine, mpi::MpiConfig{});
  const std::size_t count = 1u << 18;  // 2MB of doubles: many pipeline slices
  double mbps = 0;
  obs::PvarSnapshot delta;
  machine.run_spmd([&](int task) {
    mpi::Mpi& mp = world.at(task);
    mp.init(mpi::ThreadLevel::Single);
    const mpi::Comm w = mp.world();
    std::vector<double> in(count, 1.0), out(count);
    for (int i = 0; i < 2; ++i) {
      mp.allreduce(in.data(), out.data(), count, mpi::Type::Double, mpi::Op::Add, w);
    }
    mp.barrier(w);
    bench::PvarPhase phase;
    bench::Stopwatch sw;
    for (int i = 0; i < iters; ++i) {
      mp.allreduce(in.data(), out.data(), count, mpi::Type::Double, mpi::Op::Add, w);
    }
    mp.barrier(w);
    if (mp.rank(w) == 0) {
      mbps = iters * count * sizeof(double) / sw.elapsed_us();
      delta = phase.delta();
    }
    if (out[count / 2] != 8.0) std::printf("  VERIFICATION FAILED\n");
    mp.finalize();
  });
  *measured_delta = delta;
  return mbps;
}

/// Software-path steady state: collectives on a 3-rank split communicator
/// (k-nomial trees over active messages — no classroute). Two warm-up
/// passes fill the payload pools and flat match slots; the measured pass
/// must then run without a single pool miss.
double host_software_allreduce_us(int iters, obs::PvarSnapshot* measured_delta) {
  runtime::Machine machine(hw::TorusGeometry({2, 2, 1, 1, 1}), 1);
  mpi::MpiWorld world(machine, mpi::MpiConfig{});
  double us = 0;
  obs::PvarSnapshot delta;
  machine.run_spmd([&](int task) {
    mpi::Mpi& mp = world.at(task);
    mp.init(mpi::ThreadLevel::Single);
    const mpi::Comm w = mp.world();
    const mpi::Comm c = mp.split(w, mp.rank(w) < 3 ? 0 : 1, mp.rank(w));
    if (mp.rank(w) < 3) {
      std::vector<double> in(8, 1.0), out(8);
      std::vector<std::byte> payload(64, std::byte{0x42});
      auto pass = [&](int n) {
        mp.barrier(c);
        for (int i = 0; i < n; ++i) {
          mp.bcast(payload.data(), payload.size(), 0, c);
          mp.allreduce(in.data(), out.data(), 8, mpi::Type::Double, mpi::Op::Add, c);
        }
        mp.barrier(c);
      };
      pass(iters);  // warm-up: pools and slot tables fill
      pass(iters);  // covers the pass->pass transition pattern too
      bench::PvarPhase phase;
      bench::Stopwatch sw;
      pass(iters);
      if (mp.rank(c) == 0) {
        us = sw.elapsed_us() / iters;
        delta = phase.delta();
      }
      if (out[0] != 3.0) std::printf("  VERIFICATION FAILED\n");
    }
    mp.barrier(w);
    mp.finalize();
  });
  if (measured_delta != nullptr) *measured_delta = delta;
  return us;
}

}  // namespace

int main() {
  bench::header("FIGURE 7 — MPI_Allreduce latency, 1 double (us)");

  std::printf("%-8s %10s %10s %10s\n", "nodes", "ppn=1", "ppn=4", "ppn=16");
  std::printf("------------------------------------------\n");
  for (int nodes : {32, 64, 128, 256, 512, 1024, 2048}) {
    const sim::CollectiveModel m(bench::geometry_for_nodes(nodes), sim::BgqCostModel{});
    std::printf("%-8d %10.2f %10.2f %10.2f\n", nodes, m.allreduce_latency_us(1),
                m.allreduce_latency_us(4), m.allreduce_latency_us(16));
  }
  std::printf("\nPaper anchors @2048 nodes: 5.5 / 5.0 / 5.3 us for ppn 1 / 4 / 16\n"
              "(the ppn=4 dip comes from the shared-address copy-out offload).\n");

  bench::JsonResult json;
  const int kIters = bench::env_iters("PAMIX_FIG7_ITERS", 2000);
  json.add("iters", static_cast<std::uint64_t>(kIters));

  std::printf("\nFunctional host run (real collective-network engine, 4 nodes):\n");
  for (int ppn : {1, 2, 4}) {
    bench::PvarPhase phase;
    const double us = host_allreduce_us(ppn, kIters);
    std::printf("  ppn=%d : %8.2f us/allreduce\n", ppn, us);
    char key[48];
    std::snprintf(key, sizeof(key), "latency_us_ppn%d", ppn);
    json.add(key, us);
    std::snprintf(key, sizeof(key), "allreduce ppn=%d", ppn);
    phase.report(key);
  }

  // Pipelined 2MB allreduce: the Figure-4 schedule, network round k in
  // flight while slice k+1's local math runs.
  const int kBwIters = bench::env_iters("PAMIX_FIG7_BW_ITERS", 3);
  std::printf("\nPipelined 2MB allreduce (4 nodes x 2 ppn, %d iters):\n", kBwIters);
  obs::PvarSnapshot bw_delta;
  const double bw = host_allreduce_2mb_mb_s(kBwIters, &bw_delta);
  std::printf("  Figure-4 pipeline: %8.0f MB/s\n", bw);
  const std::uint64_t occupancy = bw_delta[obs::Pvar::CollOverlapBytes];
  std::printf("  coll pvars: slices=%llu net_rounds=%llu overlap_occupancy=%llu "
              "local_reduce=%llu : %s\n",
              static_cast<unsigned long long>(bw_delta[obs::Pvar::CollSlices]),
              static_cast<unsigned long long>(bw_delta[obs::Pvar::CollNetRounds]),
              static_cast<unsigned long long>(occupancy),
              static_cast<unsigned long long>(bw_delta[obs::Pvar::CollLocalReduceBytes]),
              occupancy > 0 ? "OK" : "NO OVERLAP (unexpected)");
  json.add("allreduce_2mb_mb_s", bw);
  json.add("coll.slices", bw_delta[obs::Pvar::CollSlices]);
  json.add("coll.net_rounds", bw_delta[obs::Pvar::CollNetRounds]);
  json.add("coll.overlap_occupancy", occupancy);
  json.add("coll.local_reduce_bytes", bw_delta[obs::Pvar::CollLocalReduceBytes]);

  // Software path (non-optimized 3-rank communicator): latency plus the
  // steady-state allocation discipline of the k-nomial engine.
  const int kSwIters = bench::env_iters("PAMIX_FIG7_SW_ITERS", 256);
  obs::PvarSnapshot sw_delta;
  const double sw_us = host_software_allreduce_us(kSwIters, &sw_delta);
  const std::uint64_t sw_misses = sw_delta[obs::Pvar::AllocPoolMisses];
  std::printf("\nSoftware path (3-rank split comm, k-nomial over active messages):\n");
  std::printf("  %8.2f us/iteration (bcast + allreduce); sw_deposits=%llu "
              "pool_misses=%llu\n",
              sw_us, static_cast<unsigned long long>(sw_delta[obs::Pvar::CollSwDeposits]),
              static_cast<unsigned long long>(sw_misses));
  json.add("software_iter_us", sw_us);
  json.add("coll.sw_deposits", sw_delta[obs::Pvar::CollSwDeposits]);
  json.add("sw.pool_misses", sw_misses);
  json.write("BENCH_fig7.json");

  bench::obs_finish();

  // CI gate: a pool miss in the measured software-collective steady state
  // means something on the collective fast path stopped recycling.
  if (std::getenv("PAMIX_BENCH_STRICT_ALLOC") != nullptr && sw_misses > 0) {
    std::fprintf(stderr,
                 "fig7: PAMIX_BENCH_STRICT_ALLOC: %llu pool misses in the measured "
                 "software-collective phase (expected 0)\n",
                 static_cast<unsigned long long>(sw_misses));
    return 1;
  }
  return 0;
}
