// Zero-allocation steady state for the MPI matching engine: after the
// per-shard node freelists and flat peer tables warm up, posted->match,
// unexpected->claim, and ANY_SOURCE wildcard cycles must perform NO global
// allocator calls. A counting replacement of the global operator new
// enforces it by count (the mpi.match.pool_misses pvar is cross-checked),
// so a hidden allocation sneaking back onto the match path — a node that
// stopped recycling, a payload vector losing its capacity, a std::map
// creeping back into the sequence tables — fails loudly. MPI_Waitall is
// held to the same standard.
//
// This file must be its own test binary: replacing ::operator new is
// program-wide. Requests are pre-acquired and reset between cycles —
// RequestPool::acquire itself makes a shared_ptr control block, which is
// the caller's cost, not the matcher's.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "mpi/matching.h"
#include "mpi/mpi.h"
#include "obs/pvar.h"
#include "runtime/machine.h"

namespace {

std::atomic<std::uint64_t> g_news{0};

}  // namespace

// Counting global allocator. Counts every operator-new entry point;
// deallocation is left untouched (free is not the invariant under test).
void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t n, std::align_val_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               (n + static_cast<std::size_t>(align) - 1) &
                                   ~(static_cast<std::size_t>(align) - 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new[](std::size_t n, std::align_val_t align) { return ::operator new(n, align); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace pamix::mpi {
namespace {

std::uint64_t allocations() { return g_news.load(std::memory_order_relaxed); }

/// Standalone matcher driven directly (no Machine, no contexts), so every
/// measured allocation is attributable to the match path itself.
class MatchAllocSteadyState : public ::testing::Test {
 protected:
  MatchAllocSteadyState() : matcher_(Library::ThreadOptimized, Matcher::Mode::Bins, 4, &pvars_) {}

  Matcher::Arrival arrival(int src, int tag, const void* data, std::size_t bytes) {
    Matcher::Arrival a;
    a.kind = Matcher::Arrival::Kind::Inline;
    a.env = Envelope{0, src, tag, seq_[static_cast<std::size_t>(src)]++};
    a.origin = pami::Endpoint{src, 0};
    a.total = bytes;
    a.pipe = static_cast<const std::byte*>(data);
    a.pipe_bytes = bytes;
    return a;
  }

  Request fresh(int* buf) {
    auto r = pool_.acquire(RequestImpl::Kind::Recv);
    r->buffer = buf;
    r->capacity = sizeof(int);
    return r;
  }

  static void rearm(const Request& r, int* buf) {
    r->reset();
    r->buffer = buf;
    r->capacity = sizeof(int);
  }

  obs::PvarSet pvars_;
  Matcher matcher_;
  RequestPool pool_;
  std::uint32_t seq_[64] = {};
};

TEST_F(MatchAllocSteadyState, PostedThenMatchIsAllocationFree) {
  int buf = 0;
  const int v = 7;
  Request req = fresh(&buf);
  auto cycle = [&](int times, int src) {
    for (int i = 0; i < times; ++i) {
      rearm(req, &buf);
      matcher_.post_recv(req, 0, src, 5);
      matcher_.on_arrival(arrival(src, 5, &v, sizeof(v)));
      ASSERT_TRUE(req->done());
    }
  };
  cycle(16, 1);  // warm-up: freelist node, peer-table slot

  const std::uint64_t before = allocations();
  const std::uint64_t misses_before = pvars_.get(obs::Pvar::MpiMatchPoolMisses);
  cycle(512, 1);
  EXPECT_EQ(allocations() - before, 0u)
      << "posted->match cycle touched the global allocator";
  EXPECT_EQ(pvars_.get(obs::Pvar::MpiMatchPoolMisses) - misses_before, 0u);
  EXPECT_GT(pvars_.get(obs::Pvar::MpiMatchPoolHits), 0u);
}

TEST_F(MatchAllocSteadyState, UnexpectedThenClaimIsAllocationFree) {
  int buf = 0;
  const int v = 9;
  Request req = fresh(&buf);
  auto cycle = [&](int times, int src) {
    for (int i = 0; i < times; ++i) {
      matcher_.on_arrival(arrival(src, 3, &v, sizeof(v)));
      rearm(req, &buf);
      matcher_.post_recv(req, 0, src, 3);
      ASSERT_TRUE(req->done());
      ASSERT_EQ(buf, 9);
    }
  };
  cycle(16, 2);  // warm-up: node->data grows once, keeps its capacity

  const std::uint64_t before = allocations();
  const std::uint64_t misses_before = pvars_.get(obs::Pvar::MpiMatchPoolMisses);
  cycle(512, 2);
  EXPECT_EQ(allocations() - before, 0u)
      << "unexpected->claim cycle touched the global allocator";
  EXPECT_EQ(pvars_.get(obs::Pvar::MpiMatchPoolMisses) - misses_before, 0u);
}

TEST_F(MatchAllocSteadyState, AnySourceWildcardCycleIsAllocationFree) {
  int buf = 0;
  const int v = 4;
  Request req = fresh(&buf);
  auto cycle = [&](int times) {
    for (int i = 0; i < times; ++i) {
      rearm(req, &buf);
      matcher_.post_recv(req, 0, kAnySource, 8);
      ASSERT_EQ(matcher_.outstanding_any_source(), 1u);
      // Rotate the source so the claim crosses shards every iteration.
      matcher_.on_arrival(arrival(1 + (i % 8), 8, &v, sizeof(v)));
      ASSERT_TRUE(req->done());
      ASSERT_EQ(matcher_.outstanding_any_source(), 0u);
    }
  };
  cycle(16);  // warm-up: global-wildcard freelist + 8 peer-table slots

  const std::uint64_t before = allocations();
  cycle(512);
  EXPECT_EQ(allocations() - before, 0u)
      << "ANY_SOURCE post/claim cycle touched the global allocator";
}

TEST_F(MatchAllocSteadyState, MultiSourceShardChurnIsAllocationFree) {
  // Posted and unexpected traffic spread over 32 sources (every shard of
  // the 4-context matcher), with an occasional ANY_TAG wildcard: the whole
  // mixed pattern must recycle through the per-shard freelists.
  constexpr int kSrc = 32;
  int buf = 0;
  const int v = 6;
  std::vector<Request> reqs;
  for (int i = 0; i < 3; ++i) reqs.push_back(fresh(&buf));
  auto cycle = [&](int times) {
    for (int i = 0; i < times; ++i) {
      const int src = 1 + (i % kSrc);
      rearm(reqs[0], &buf);
      matcher_.post_recv(reqs[0], 0, src, 1);
      matcher_.on_arrival(arrival(src, 1, &v, sizeof(v)));
      ASSERT_TRUE(reqs[0]->done());
      matcher_.on_arrival(arrival(src, 2, &v, sizeof(v)));
      rearm(reqs[1], &buf);
      matcher_.post_recv(reqs[1], 0, src, 2);
      ASSERT_TRUE(reqs[1]->done());
      rearm(reqs[2], &buf);
      matcher_.post_recv(reqs[2], 0, src, kAnyTag);
      matcher_.on_arrival(arrival(src, 3, &v, sizeof(v)));
      ASSERT_TRUE(reqs[2]->done());
    }
  };
  cycle(2 * kSrc);  // warm-up: every source's peer slot + shard freelists

  const std::uint64_t before = allocations();
  const std::uint64_t misses_before = pvars_.get(obs::Pvar::MpiMatchPoolMisses);
  cycle(8 * kSrc);
  EXPECT_EQ(allocations() - before, 0u)
      << "multi-source shard churn touched the global allocator";
  EXPECT_EQ(pvars_.get(obs::Pvar::MpiMatchPoolMisses) - misses_before, 0u);
}

/// MPI_Waitall itself: after warm-up, waiting on a batch must not touch
/// the allocator — the two-phase residue is compacted inside the caller's
/// request vector. One rank sending to itself over the shm path keeps the
/// run single-threaded, so every counted allocation is the wait's own.
TEST(WaitallAllocSteadyState, WaitallIsAllocationFree) {
  runtime::Machine machine(hw::TorusGeometry({1, 1, 1, 1, 1}), 1);
  MpiWorld world(machine, MpiConfig{});
  std::uint64_t measured = 0;
  machine.run_spmd([&](int task) {
    Mpi& mp = world.at(task);
    mp.init(ThreadLevel::Single);
    const Comm w = mp.world();
    constexpr int kMsgs = 16;
    std::vector<int> recv(kMsgs, 0), send(kMsgs, 5);
    std::vector<Request> reqs;
    reqs.reserve(2 * kMsgs);
    auto batch = [&] {
      for (int i = 0; i < kMsgs; ++i) reqs.push_back(mp.irecv(&recv[i], sizeof(int), 0, i, w));
      for (int i = 0; i < kMsgs; ++i) reqs.push_back(mp.isend(&send[i], sizeof(int), 0, i, w));
      const std::uint64_t before = allocations();
      mp.waitall(reqs);
      const std::uint64_t n = allocations() - before;
      EXPECT_TRUE(reqs.empty());
      EXPECT_EQ(recv[kMsgs - 1], 5);
      return n;
    };
    for (int i = 0; i < 8; ++i) batch();  // warm-up: request, match and shm pools
    for (int i = 0; i < 64; ++i) measured += batch();
    mp.finalize();
  });
  EXPECT_EQ(measured, 0u) << "waitall touched the global allocator";
}

}  // namespace
}  // namespace pamix::mpi
