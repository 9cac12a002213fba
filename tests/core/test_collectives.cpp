#include "core/collectives.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>

#include "core/client.h"
#include "runtime/machine.h"

namespace pamix::pami {
namespace {

/// SPMD collective tests over a functional machine: 4 nodes x 2 ppn.
class CollectivesTest : public ::testing::Test {
 protected:
  CollectivesTest()
      : machine_(hw::TorusGeometry({2, 2, 1, 1, 1}), 2), world_(machine_, cfg()) {}
  static ClientConfig cfg() {
    ClientConfig c;
    c.contexts_per_task = 1;
    return c;
  }
  void spmd(const std::function<void(int task, Context& ctx, Geometry& g)>& body) {
    auto geom = world_.geometries().world_geometry();
    machine_.run_spmd(
        [&](int task) { body(task, world_.client(task).context(0), *geom); });
  }

  runtime::Machine machine_;
  ClientWorld world_;
};

TEST_F(CollectivesTest, OptimizedBarrierSynchronizes) {
  std::atomic<int> arrived{0};
  spmd([&](int, Context& ctx, Geometry& g) {
    for (int round = 1; round <= 5; ++round) {
      arrived.fetch_add(1);
      coll::barrier(ctx, g);
      EXPECT_GE(arrived.load(), 8 * round);
    }
  });
}

TEST_F(CollectivesTest, OptimizedBroadcastFromEveryRoot) {
  for (std::size_t root = 0; root < 8; root += 3) {
    spmd([&](int task, Context& ctx, Geometry& g) {
      std::vector<double> buf(64, -1.0);
      if (*g.rank_of(task) == root) {
        std::iota(buf.begin(), buf.end(), 100.0);
      }
      coll::broadcast(ctx, g, root, buf.data(), buf.size() * sizeof(double));
      for (std::size_t i = 0; i < buf.size(); ++i) {
        ASSERT_DOUBLE_EQ(buf[i], 100.0 + static_cast<double>(i));
      }
    });
  }
}

TEST_F(CollectivesTest, OptimizedAllreduceSum) {
  spmd([&](int task, Context& ctx, Geometry& g) {
    const auto rank = static_cast<double>(*g.rank_of(task));
    std::vector<double> in(32), out(32);
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = rank + static_cast<double>(i);
    coll::allreduce(ctx, g, in.data(), out.data(), in.size() * sizeof(double),
                    hw::CombineOp::Add, hw::CombineType::Double);
    // sum over ranks 0..7 of (rank + i) = 28 + 8i.
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_DOUBLE_EQ(out[i], 28.0 + 8.0 * static_cast<double>(i));
    }
  });
}

TEST_F(CollectivesTest, OptimizedAllreduceMinMax) {
  spmd([&](int task, Context& ctx, Geometry& g) {
    const auto rank = static_cast<std::int64_t>(*g.rank_of(task));
    std::int64_t in = 100 - rank;
    std::int64_t out = 0;
    coll::allreduce(ctx, g, &in, &out, sizeof(in), hw::CombineOp::Min, hw::CombineType::Int64);
    EXPECT_EQ(out, 93);
    coll::allreduce(ctx, g, &in, &out, sizeof(in), hw::CombineOp::Max, hw::CombineType::Int64);
    EXPECT_EQ(out, 100);
  });
}

TEST_F(CollectivesTest, LongAllreducePipelinesSlices) {
  // > kPipelineSliceBytes forces the Figure-4 pipelined path.
  const std::size_t count = (coll::kPipelineSliceBytes / sizeof(double)) * 3 + 17;
  spmd([&](int task, Context& ctx, Geometry& g) {
    const auto rank = static_cast<double>(*g.rank_of(task));
    std::vector<double> in(count, rank + 1.0), out(count);
    coll::allreduce(ctx, g, in.data(), out.data(), count * sizeof(double), hw::CombineOp::Add,
                    hw::CombineType::Double);
    for (std::size_t i = 0; i < count; ++i) ASSERT_DOUBLE_EQ(out[i], 36.0);  // sum 1..8
  });
}

TEST_F(CollectivesTest, ReduceDeliversOnlyAtRoot) {
  spmd([&](int task, Context& ctx, Geometry& g) {
    const auto rank = static_cast<double>(*g.rank_of(task));
    double in = rank;
    double out = -1.0;
    coll::reduce(ctx, g, 3, &in, &out, sizeof(double), hw::CombineOp::Add,
                 hw::CombineType::Double);
    if (*g.rank_of(task) == 3) {
      EXPECT_DOUBLE_EQ(out, 28.0);
    }
  });
}

TEST_F(CollectivesTest, SoftwareCollectivesOnIrregularGeometry) {
  // Tasks {0, 2, 5, 7}: not a rectangle — software trees over pt2pt.
  auto geom = world_.geometries().get_or_create(77, Topology::list({0, 2, 5, 7}));
  ASSERT_FALSE(geom->optimized());
  machine_.run_spmd([&](int task) {
    if (!geom->rank_of(task).has_value()) return;
    Context& ctx = world_.client(task).context(0);
    const auto rank = static_cast<double>(*geom->rank_of(task));
    // Barrier.
    coll::barrier(ctx, *geom);
    // Broadcast from rank 2 (task 5).
    std::array<int, 4> buf{};
    if (rank == 2) buf = {10, 20, 30, 40};
    coll::broadcast(ctx, *geom, 2, buf.data(), sizeof(buf));
    EXPECT_EQ(buf[3], 40);
    // Allreduce.
    double in = rank + 1.0, out = 0.0;
    coll::allreduce(ctx, *geom, &in, &out, sizeof(double), hw::CombineOp::Add,
                    hw::CombineType::Double);
    EXPECT_DOUBLE_EQ(out, 10.0);  // 1+2+3+4
  });
}

TEST_F(CollectivesTest, AlltoallExchangesAllBlocks) {
  spmd([&](int task, Context& ctx, Geometry& g) {
    const int n = static_cast<int>(g.size());
    const int me = static_cast<int>(*g.rank_of(task));
    std::vector<std::int32_t> send(static_cast<std::size_t>(n)), recv(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) send[static_cast<std::size_t>(r)] = me * 100 + r;
    coll::alltoall(ctx, g, send.data(), recv.data(), sizeof(std::int32_t));
    for (int r = 0; r < n; ++r) {
      ASSERT_EQ(recv[static_cast<std::size_t>(r)], r * 100 + me);
    }
  });
}

TEST_F(CollectivesTest, GatherAndScatter) {
  spmd([&](int task, Context& ctx, Geometry& g) {
    const int n = static_cast<int>(g.size());
    const int me = static_cast<int>(*g.rank_of(task));
    const std::int64_t mine = 1000 + me;
    std::vector<std::int64_t> all(static_cast<std::size_t>(n));
    coll::gather(ctx, g, 1, &mine, all.data(), sizeof(std::int64_t));
    if (me == 1) {
      for (int r = 0; r < n; ++r) ASSERT_EQ(all[static_cast<std::size_t>(r)], 1000 + r);
      for (int r = 0; r < n; ++r) all[static_cast<std::size_t>(r)] = 2000 + r;
    }
    std::int64_t got = 0;
    coll::scatter(ctx, g, 1, all.data(), &got, sizeof(std::int64_t));
    EXPECT_EQ(got, 2000 + me);
  });
}

TEST_F(CollectivesTest, MixedCollectiveSequenceStaysConsistent) {
  spmd([&](int task, Context& ctx, Geometry& g) {
    const auto rank = static_cast<double>(*g.rank_of(task));
    for (int round = 0; round < 10; ++round) {
      double in = rank + round, out = 0;
      coll::allreduce(ctx, g, &in, &out, sizeof(double), hw::CombineOp::Add,
                      hw::CombineType::Double);
      ASSERT_DOUBLE_EQ(out, 28.0 + 8.0 * round);
      coll::barrier(ctx, g);
      double root_val = (rank == 0) ? out * 2 : 0;
      coll::broadcast(ctx, g, 0, &root_val, sizeof(double));
      ASSERT_DOUBLE_EQ(root_val, 2 * (28.0 + 8.0 * round));
    }
  });
}

/// Restore the process-global tuning knobs on scope exit, so sweeps in one
/// test can't leak into the next.
struct TuningGuard {
  coll::CollTuning saved = coll::tuning();
  ~TuningGuard() { coll::tuning() = saved; }
};

TEST_F(CollectivesTest, ZeroBytePayloadsBothPaths) {
  auto sw = world_.geometries().get_or_create(78, Topology::list({0, 3, 6}));
  ASSERT_FALSE(sw->optimized());
  spmd([&](int task, Context& ctx, Geometry& g) {
    // Optimized path: zero slices, barriers only — must not hang or touch
    // the (null) buffers.
    coll::broadcast(ctx, g, 2, nullptr, 0);
    coll::allreduce(ctx, g, nullptr, nullptr, 0, hw::CombineOp::Add, hw::CombineType::Double);
    coll::barrier(ctx, g);
    // Software path on the 3-member list.
    if (sw->rank_of(task).has_value()) {
      coll::broadcast(ctx, *sw, 1, nullptr, 0);
      coll::allreduce(ctx, *sw, nullptr, nullptr, 0, hw::CombineOp::Add,
                      hw::CombineType::Int32);
    }
  });
}

TEST_F(CollectivesTest, NonSliceMultiplePayloadPipelines) {
  TuningGuard guard;
  coll::tuning().slice_bytes = 256;  // tiny slices: many rounds, ragged tail
  // 3.5 slices of doubles plus a ragged remainder.
  const std::size_t count = (256 / sizeof(double)) * 3 + 13;
  spmd([&](int task, Context& ctx, Geometry& g) {
    const auto rank = static_cast<double>(*g.rank_of(task));
    std::vector<double> in(count), out(count, -1.0);
    for (std::size_t i = 0; i < count; ++i) in[i] = rank + static_cast<double>(i % 7);
    coll::allreduce(ctx, g, in.data(), out.data(), count * sizeof(double), hw::CombineOp::Add,
                    hw::CombineType::Double);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_DOUBLE_EQ(out[i], 28.0 + 8.0 * static_cast<double>(i % 7)) << "i=" << i;
    }
    std::vector<double> bbuf(count);
    if (*g.rank_of(task) == 5) {
      for (std::size_t i = 0; i < count; ++i) bbuf[i] = static_cast<double>(i) * 0.5;
    }
    coll::broadcast(ctx, g, 5, bbuf.data(), count * sizeof(double));
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_DOUBLE_EQ(bbuf[i], static_cast<double>(i) * 0.5);
    }
  });
}

TEST_F(CollectivesTest, AllCombineWidthsBothPaths) {
  auto sw = world_.geometries().get_or_create(79, Topology::list({1, 2, 4, 7}));
  ASSERT_FALSE(sw->optimized());
  spmd([&](int task, Context& ctx, Geometry& g) {
    const auto rank = static_cast<int>(*g.rank_of(task));
    auto check = [&](Context& cx, Geometry& geom, int n) {
      // Sum over ranks 0..n-1 of (rank+1) = n(n+1)/2.
      const int expect_sum = n * (n + 1) / 2;
      std::int32_t i32 = rank + 1, o32 = 0;
      coll::allreduce(cx, geom, &i32, &o32, sizeof(i32), hw::CombineOp::Add,
                      hw::CombineType::Int32);
      ASSERT_EQ(o32, expect_sum);
      std::uint32_t u32 = static_cast<std::uint32_t>(rank) + 1, ou32 = 0;
      coll::allreduce(cx, geom, &u32, &ou32, sizeof(u32), hw::CombineOp::Add,
                      hw::CombineType::Uint32);
      ASSERT_EQ(ou32, static_cast<std::uint32_t>(expect_sum));
      std::int64_t i64 = rank + 1, o64 = 0;
      coll::allreduce(cx, geom, &i64, &o64, sizeof(i64), hw::CombineOp::Max,
                      hw::CombineType::Int64);
      ASSERT_EQ(o64, n);
      std::uint64_t u64 = static_cast<std::uint64_t>(rank) + 1, ou64 = 0;
      coll::allreduce(cx, geom, &u64, &ou64, sizeof(u64), hw::CombineOp::Min,
                      hw::CombineType::Uint64);
      ASSERT_EQ(ou64, 1u);
      double d = rank + 1.0, od = 0.0;
      coll::allreduce(cx, geom, &d, &od, sizeof(d), hw::CombineOp::Add,
                      hw::CombineType::Double);
      ASSERT_DOUBLE_EQ(od, expect_sum);
      std::uint32_t bits = 1u << (rank % 8), obits = 0;
      coll::allreduce(cx, geom, &bits, &obits, sizeof(bits), hw::CombineOp::BitwiseOr,
                      hw::CombineType::Uint32);
      ASSERT_NE(obits, 0u);
    };
    check(ctx, g, 8);  // optimized path (world geometry)
    if (sw->rank_of(task).has_value()) {
      // Software path: rank within the list geometry.
      const auto lr = static_cast<int>(*sw->rank_of(task));
      const int n = static_cast<int>(sw->size());
      std::int32_t i32 = lr + 1, o32 = 0;
      coll::allreduce(ctx, *sw, &i32, &o32, sizeof(i32), hw::CombineOp::Add,
                      hw::CombineType::Int32);
      ASSERT_EQ(o32, n * (n + 1) / 2);
      double d = lr + 1.0, od = 0.0;
      coll::allreduce(ctx, *sw, &d, &od, sizeof(d), hw::CombineOp::Add,
                      hw::CombineType::Double);
      ASSERT_DOUBLE_EQ(od, n * (n + 1) / 2.0);
    }
  });
}

TEST_F(CollectivesTest, RadixSweepEquivalence) {
  // Non-power-of-two member counts stress the ragged k-nomial trees.
  // Integer-valued doubles stay exact under any combine order, so every
  // radix must produce bit-identical results.
  for (const auto& members : {std::vector<int>{0, 2, 5}, std::vector<int>{0, 1, 3, 4, 6},
                              std::vector<int>{0, 1, 2, 3, 4, 5, 6}}) {
    auto geom = world_.geometries().get_or_create(
        100 + static_cast<std::uint64_t>(members.size()), Topology::list(members));
    ASSERT_FALSE(geom->optimized());
    const int n = static_cast<int>(members.size());
    for (int radix : {2, 4, 8}) {
      TuningGuard guard;
      coll::tuning().radix = radix;
      machine_.run_spmd([&](int task) {
        if (!geom->rank_of(task).has_value()) return;
        Context& ctx = world_.client(task).context(0);
        const auto rank = static_cast<int>(*geom->rank_of(task));
        // Broadcast from every root.
        for (int root = 0; root < n; ++root) {
          std::vector<std::int64_t> buf(33, -1);
          if (rank == root) {
            for (std::size_t i = 0; i < buf.size(); ++i) {
              buf[i] = root * 1000 + static_cast<std::int64_t>(i);
            }
          }
          coll::broadcast(ctx, *geom, static_cast<std::size_t>(root), buf.data(),
                          buf.size() * sizeof(std::int64_t));
          for (std::size_t i = 0; i < buf.size(); ++i) {
            ASSERT_EQ(buf[i], root * 1000 + static_cast<std::int64_t>(i))
                << "radix=" << radix << " n=" << n << " root=" << root;
          }
        }
        // Reduce to every root + allreduce, small-integer doubles.
        double in = rank + 1.0;
        for (int root = 0; root < n; ++root) {
          double out = -1.0;
          coll::reduce(ctx, *geom, static_cast<std::size_t>(root), &in, &out, sizeof(double),
                       hw::CombineOp::Add, hw::CombineType::Double);
          if (rank == root) {
            ASSERT_DOUBLE_EQ(out, n * (n + 1) / 2.0) << "radix=" << radix << " n=" << n;
          }
        }
        double aout = 0.0;
        coll::allreduce(ctx, *geom, &in, &aout, sizeof(double), hw::CombineOp::Add,
                        hw::CombineType::Double);
        ASSERT_DOUBLE_EQ(aout, n * (n + 1) / 2.0) << "radix=" << radix << " n=" << n;
      });
    }
  }
}

TEST_F(CollectivesTest, MultiSliceAllreduceWithRaggedTail) {
  // Two full pipeline slices plus a partial one: every slice's math,
  // round and copy-out must land, the ragged tail included.
  const std::size_t count = (coll::kPipelineSliceBytes / sizeof(double)) * 2 + 9;
  spmd([&](int task, Context& ctx, Geometry& g) {
    const auto rank = static_cast<double>(*g.rank_of(task));
    std::vector<double> in(count, rank + 1.0), out(count);
    coll::allreduce(ctx, g, in.data(), out.data(), count * sizeof(double), hw::CombineOp::Add,
                    hw::CombineType::Double);
    for (std::size_t i = 0; i < count; ++i) ASSERT_DOUBLE_EQ(out[i], 36.0) << "i=" << i;
  });
}

/// Non-power-of-two node count on the optimized path: 3 nodes x 2 ppn.
class CollectivesNonPow2Test : public ::testing::Test {
 protected:
  CollectivesNonPow2Test()
      : machine_(hw::TorusGeometry({3, 1, 1, 1, 1}), 2), world_(machine_, cfg()) {}
  static ClientConfig cfg() {
    ClientConfig c;
    c.contexts_per_task = 1;
    return c;
  }
  runtime::Machine machine_;
  ClientWorld world_;
};

TEST_F(CollectivesNonPow2Test, OptimizedCollectivesOnSixTasks) {
  auto geom = world_.geometries().world_geometry();
  ASSERT_TRUE(geom->optimized());
  machine_.run_spmd([&](int task) {
    Context& ctx = world_.client(task).context(0);
    Geometry& g = *geom;
    const auto rank = static_cast<double>(*g.rank_of(task));
    coll::barrier(ctx, g);
    double in = rank + 1.0, out = 0.0;
    coll::allreduce(ctx, g, &in, &out, sizeof(double), hw::CombineOp::Add,
                    hw::CombineType::Double);
    ASSERT_DOUBLE_EQ(out, 21.0);  // 1+..+6
    // Long pipelined allreduce across 3 nodes.
    const std::size_t count = (coll::kPipelineSliceBytes / sizeof(double)) * 2 + 5;
    std::vector<double> vin(count, rank), vout(count);
    coll::allreduce(ctx, g, vin.data(), vout.data(), count * sizeof(double),
                    hw::CombineOp::Add, hw::CombineType::Double);
    for (std::size_t i = 0; i < count; ++i) ASSERT_DOUBLE_EQ(vout[i], 15.0);  // 0+..+5
    std::vector<std::int32_t> buf(1000);
    if (rank == 4.0) {
      for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::int32_t>(i);
    }
    coll::broadcast(ctx, g, 4, buf.data(), buf.size() * sizeof(std::int32_t));
    ASSERT_EQ(buf[999], 999);
  });
}

TEST_F(CollectivesNonPow2Test, SoftwareRadixSweepOnFiveTaskList) {
  // 5 of the 6 tasks: irregular, so every collective rides the software
  // trees; 5 members keeps the k-nomial shapes ragged at every radix.
  auto geom = world_.geometries().get_or_create(55, Topology::list({0, 1, 2, 4, 5}));
  ASSERT_FALSE(geom->optimized());
  for (int radix : {2, 4, 8}) {
    TuningGuard guard;
    coll::tuning().radix = radix;
    machine_.run_spmd([&](int task) {
      if (!geom->rank_of(task).has_value()) return;
      Context& ctx = world_.client(task).context(0);
      const auto rank = static_cast<std::int64_t>(*geom->rank_of(task));
      std::int64_t in = rank * rank, out = 0;
      coll::software_barrier(ctx, *geom);
      coll::allreduce(ctx, *geom, &in, &out, sizeof(in), hw::CombineOp::Add,
                      hw::CombineType::Int64);
      ASSERT_EQ(out, 0 + 1 + 4 + 9 + 16) << "radix=" << radix;
    });
  }
}

}  // namespace
}  // namespace pamix::pami
