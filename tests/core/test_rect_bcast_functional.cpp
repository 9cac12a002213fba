// Functional multicolor rectangle broadcast: real slices relayed down the
// real constructed trees over the PAMI point-to-point stack.
#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <string>

#include "core/client.h"
#include "core/collectives.h"
#include "obs/pvar.h"
#include "runtime/machine.h"

namespace pamix::pami {
namespace {

class RectBcastFunctional : public ::testing::TestWithParam<std::pair<std::array<int, 5>, int>> {
};

TEST_P(RectBcastFunctional, DeliversEverywhere) {
  const auto [dims, ppn] = GetParam();
  runtime::Machine machine(hw::TorusGeometry(dims), ppn);
  ClientWorld world(machine, ClientConfig{});
  auto geom = world.geometries().world_geometry();
  const std::size_t bytes = 40000;  // not divisible by 10: uneven slices

  machine.run_spmd([&](int task) {
    Context& ctx = world.client(task).context(0);
    std::vector<std::uint8_t> buf(bytes, 0);
    if (*geom->rank_of(task) == 0) {
      for (std::size_t i = 0; i < bytes; ++i) buf[i] = static_cast<std::uint8_t>(i * 7 + 3);
    }
    coll::rectangle_broadcast(ctx, *geom, 0, buf.data(), bytes);
    for (std::size_t i = 0; i < bytes; i += 997) {
      ASSERT_EQ(buf[i], static_cast<std::uint8_t>(i * 7 + 3)) << "task " << task;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RectBcastFunctional,
    ::testing::Values(std::make_pair(std::array<int, 5>{2, 2, 1, 1, 1}, 1),
                      std::make_pair(std::array<int, 5>{2, 2, 1, 1, 1}, 2),
                      std::make_pair(std::array<int, 5>{3, 3, 1, 1, 1}, 1),
                      std::make_pair(std::array<int, 5>{2, 2, 2, 1, 1}, 1),
                      std::make_pair(std::array<int, 5>{1, 1, 1, 1, 1}, 4)),
    [](const auto& info) {
      std::string s = "t";
      for (int d : info.param.first) s += std::to_string(d);
      return s + "_ppn" + std::to_string(info.param.second);
    });

TEST(RectBcastFunctionalRoots, NonZeroAndNonMasterRoots) {
  runtime::Machine machine(hw::TorusGeometry({2, 2, 1, 1, 1}), 2);
  ClientWorld world(machine, ClientConfig{});
  auto geom = world.geometries().world_geometry();
  const std::size_t bytes = 8192;
  // Root 5 = node 2, local index 1: NOT its node's master.
  for (std::size_t root : {std::size_t{5}, std::size_t{3}}) {
    machine.run_spmd([&](int task) {
      Context& ctx = world.client(task).context(0);
      std::vector<std::uint32_t> buf(bytes / 4, 0);
      if (*geom->rank_of(task) == root) {
        std::iota(buf.begin(), buf.end(), static_cast<std::uint32_t>(root) * 1000);
      }
      coll::rectangle_broadcast(ctx, *geom, root, buf.data(), bytes);
      ASSERT_EQ(buf.front(), root * 1000);
      ASSERT_EQ(buf.back(), root * 1000 + bytes / 4 - 1);
    });
  }
}

TEST(RectBcastFunctionalSmall, TinyAndEmptyMessages) {
  runtime::Machine machine(hw::TorusGeometry({2, 2, 1, 1, 1}), 1);
  ClientWorld world(machine, ClientConfig{});
  auto geom = world.geometries().world_geometry();
  machine.run_spmd([&](int task) {
    Context& ctx = world.client(task).context(0);
    // Fewer bytes than colors: most slices are empty.
    std::array<std::uint8_t, 3> small{};
    if (*geom->rank_of(task) == 0) small = {9, 8, 7};
    coll::rectangle_broadcast(ctx, *geom, 0, small.data(), small.size());
    EXPECT_EQ(small[0], 9);
    EXPECT_EQ(small[2], 7);
    // Zero bytes: pure synchronization.
    coll::rectangle_broadcast(ctx, *geom, 0, small.data(), 0);
  });
}

TEST(RectBcastFunctionalIrregular, FallsBackForNonRectangles) {
  runtime::Machine machine(hw::TorusGeometry({2, 2, 1, 1, 1}), 1);
  ClientWorld world(machine, ClientConfig{});
  auto geom = world.geometries().get_or_create(5, Topology::list({0, 1, 3}));
  const std::uint64_t fallbacks_before =
      obs::Registry::instance().totals()[obs::Pvar::CollRectFallbacks];
  machine.run_spmd([&](int task) {
    if (!geom->rank_of(task).has_value()) return;
    Context& ctx = world.client(task).context(0);
    int v = *geom->rank_of(task) == 0 ? 77 : 0;
    coll::rectangle_broadcast(ctx, *geom, 0, &v, sizeof(v));
    EXPECT_EQ(v, 77);
  });
  // The silent downgrade to the radix-tree broadcast must be observable:
  // every participating task counts one fallback.
  EXPECT_EQ(obs::Registry::instance().totals()[obs::Pvar::CollRectFallbacks] -
                fallbacks_before,
            3u);
}

/// RAII chunk-size override for the sweep tests below (the tuning knob is
/// process-global, so tests must restore it for their neighbors).
class ScopedRectChunk {
 public:
  explicit ScopedRectChunk(std::size_t chunk) : saved_(coll::tuning().rect_chunk) {
    coll::tuning().rect_chunk = chunk;
  }
  ~ScopedRectChunk() { coll::tuning().rect_chunk = saved_; }

 private:
  std::size_t saved_;
};

/// A zero relay chunk is not a setting: the knob warns and keeps the
/// default, like every other invalid collective tuning value.
TEST(RectBcastChunked, ZeroChunkEnvWarnsAndKeepsDefault) {
  ::setenv("PAMIX_RECT_CHUNK", "0", /*overwrite=*/1);
  ::testing::internal::CaptureStderr();
  const coll::CollTuning t = coll::tuning_from_env();
  const std::string err = ::testing::internal::GetCapturedStderr();
  ::unsetenv("PAMIX_RECT_CHUNK");
  EXPECT_EQ(t.rect_chunk, coll::kRectChunkBytes);
  EXPECT_NE(err.find("PAMIX_RECT_CHUNK=0"), std::string::npos) << err;
}

/// The streaming relay must deliver for any chunk size: one byte
/// (degenerate maximum chunk count), odd sizes that never divide the
/// slice, the default, and a chunk far larger than any color slice
/// (degenerates to store-and-forward scheduling, single chunk per color).
/// The all-extent-2 torus also exercises per-chunk hint bits on rings
/// where +dir and -dir reach the same neighbor.
TEST(RectBcastChunked, DeliversAtEveryChunkSize) {
  runtime::Machine machine(hw::TorusGeometry({2, 2, 2, 1, 1}), 1);
  ClientWorld world(machine, ClientConfig{});
  auto geom = world.geometries().world_geometry();
  const std::size_t bytes = 40001;  // prime-ish: never a multiple of chunk*colors
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{97}, std::size_t{1024},
                                  std::size_t{1} << 20}) {
    ScopedRectChunk scoped(chunk);
    machine.run_spmd([&](int task) {
      Context& ctx = world.client(task).context(0);
      std::vector<std::uint8_t> buf(bytes, 0);
      if (*geom->rank_of(task) == 0) {
        for (std::size_t i = 0; i < bytes; ++i) buf[i] = static_cast<std::uint8_t>(i * 13 + 5);
      }
      coll::rectangle_broadcast(ctx, *geom, 0, buf.data(), bytes);
      for (std::size_t i = 0; i < bytes; i += 499) {
        ASSERT_EQ(buf[i], static_cast<std::uint8_t>(i * 13 + 5))
            << "task " << task << " chunk " << chunk;
      }
      ASSERT_EQ(buf[bytes - 1], static_cast<std::uint8_t>((bytes - 1) * 13 + 5));
    });
  }
}

/// A 2-node line has the minimum color count; the payload is smaller than
/// one chunk, so every color is a single short chunk (and some colors may
/// be empty slices).
TEST(RectBcastChunked, SingleChunkAndFewColors) {
  runtime::Machine machine(hw::TorusGeometry({2, 1, 1, 1, 1}), 1);
  ClientWorld world(machine, ClientConfig{});
  auto geom = world.geometries().world_geometry();
  ScopedRectChunk scoped(1024);
  machine.run_spmd([&](int task) {
    Context& ctx = world.client(task).context(0);
    std::array<std::uint8_t, 100> buf{};
    if (*geom->rank_of(task) == 0) {
      for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::uint8_t>(i + 1);
    }
    coll::rectangle_broadcast(ctx, *geom, 0, buf.data(), buf.size());
    EXPECT_EQ(buf[0], 1);
    EXPECT_EQ(buf[99], 100);
  });
}

/// Back-to-back streamed broadcasts with different payloads: per-chunk
/// sequence matching must never cross-deliver between operations even
/// when a fast task starts operation i+1 while a slow one finishes i.
TEST(RectBcastChunked, BackToBackOperationsDoNotCrossDeliver) {
  runtime::Machine machine(hw::TorusGeometry({2, 2, 2, 1, 1}), 1);
  ClientWorld world(machine, ClientConfig{});
  auto geom = world.geometries().world_geometry();
  ScopedRectChunk scoped(256);
  const std::size_t bytes = 12000;
  machine.run_spmd([&](int task) {
    Context& ctx = world.client(task).context(0);
    std::vector<std::uint8_t> buf(bytes);
    for (int iter = 0; iter < 8; ++iter) {
      if (*geom->rank_of(task) == 0) {
        for (std::size_t i = 0; i < bytes; ++i) {
          buf[i] = static_cast<std::uint8_t>(i * 3 + iter * 41 + 1);
        }
      } else {
        std::fill(buf.begin(), buf.end(), 0);
      }
      coll::rectangle_broadcast(ctx, *geom, 0, buf.data(), bytes);
      for (std::size_t i = 0; i < bytes; i += 251) {
        ASSERT_EQ(buf[i], static_cast<std::uint8_t>(i * 3 + iter * 41 + 1))
            << "task " << task << " iter " << iter;
      }
    }
  });
}

}  // namespace
}  // namespace pamix::pami
