#include "mpi/mpi.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

namespace pamix::mpi {
namespace {

std::vector<double> ramp(std::size_t n, double base) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), base);
  return v;
}

/// 2x2 nodes, 2 ppn = 8 ranks, thread-optimized, no commthreads.
class MpiPt2Pt : public ::testing::Test {
 protected:
  MpiPt2Pt() : machine_(hw::TorusGeometry({2, 2, 1, 1, 1}), 2), world_(machine_, cfg()) {}
  static MpiConfig cfg() {
    MpiConfig c;
    c.rendezvous_threshold = 2048;
    return c;
  }
  void spmd(const std::function<void(Mpi&)>& body) {
    machine_.run_spmd([&](int task) {
      Mpi& mpi = world_.at(task);
      mpi.init(ThreadLevel::Single);
      body(mpi);
      mpi.finalize();
    });
  }
  runtime::Machine machine_;
  MpiWorld world_;
};

TEST_F(MpiPt2Pt, BlockingSendRecvEager) {
  spmd([&](Mpi& mpi) {
    const Comm w = mpi.world();
    const int me = mpi.rank(w);
    if (me == 0) {
      const auto data = ramp(64, 1.0);  // 512B < threshold: eager
      mpi.send(data.data(), data.size() * sizeof(double), 5, 17, w);
    } else if (me == 5) {
      std::vector<double> buf(64);
      Status st;
      mpi.recv(buf.data(), buf.size() * sizeof(double), 0, 17, w, &st);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 17);
      EXPECT_EQ(st.bytes, 64 * sizeof(double));
      EXPECT_EQ(buf, ramp(64, 1.0));
    }
  });
}

TEST_F(MpiPt2Pt, BlockingSendRecvRendezvous) {
  spmd([&](Mpi& mpi) {
    const Comm w = mpi.world();
    const int me = mpi.rank(w);
    const std::size_t count = 100000;  // 800KB >> threshold: rendezvous
    if (me == 2) {
      const auto data = ramp(count, 3.0);
      mpi.send(data.data(), count * sizeof(double), 7, 1, w);
    } else if (me == 7) {
      std::vector<double> buf(count);
      mpi.recv(buf.data(), count * sizeof(double), 2, 1, w);
      EXPECT_EQ(buf, ramp(count, 3.0));
    }
  });
}

TEST_F(MpiPt2Pt, IntraNodePairUsesShm) {
  spmd([&](Mpi& mpi) {
    const Comm w = mpi.world();
    const int me = mpi.rank(w);
    // Ranks 0 and 1 share node 0.
    if (me == 0) {
      const int v = 99;
      mpi.send(&v, sizeof(v), 1, 0, w);
    } else if (me == 1) {
      int v = 0;
      mpi.recv(&v, sizeof(v), 0, 0, w);
      EXPECT_EQ(v, 99);
      // The MU never carried it: zero network packets for this exchange is
      // hard to assert globally, but the payload arrived.
    }
  });
}

TEST_F(MpiPt2Pt, NonblockingWaitall) {
  spmd([&](Mpi& mpi) {
    const Comm w = mpi.world();
    const int me = mpi.rank(w);
    const int n = mpi.size(w);
    constexpr int kMsgs = 8;
    std::vector<std::vector<int>> send_bufs;
    std::vector<std::vector<int>> recv_bufs(kMsgs, std::vector<int>(16));
    std::vector<Request> reqs;
    const int peer = (me + n / 2) % n;
    for (int i = 0; i < kMsgs; ++i) {
      reqs.push_back(
          mpi.irecv(recv_bufs[static_cast<std::size_t>(i)].data(), 16 * sizeof(int), peer, i, w));
    }
    for (int i = 0; i < kMsgs; ++i) {
      send_bufs.emplace_back(16, me * 1000 + i);
      mpi.barrier(w);  // not required; exercises mixing collectives
      reqs.push_back(mpi.isend(send_bufs.back().data(), 16 * sizeof(int), peer, i, w));
    }
    mpi.waitall(reqs);
    for (int i = 0; i < kMsgs; ++i) {
      EXPECT_EQ(recv_bufs[static_cast<std::size_t>(i)][0], peer * 1000 + i);
    }
  });
}

TEST_F(MpiPt2Pt, OrderingManyMessagesSamePair) {
  spmd([&](Mpi& mpi) {
    const Comm w = mpi.world();
    const int me = mpi.rank(w);
    constexpr int kCount = 300;
    if (me == 3) {
      for (int i = 0; i < kCount; ++i) mpi.send(&i, sizeof(i), 4, /*tag=*/9, w);
    } else if (me == 4) {
      for (int i = 0; i < kCount; ++i) {
        int v = -1;
        mpi.recv(&v, sizeof(v), 3, 9, w);
        ASSERT_EQ(v, i);  // MPI non-overtaking order
      }
    }
  });
}

TEST_F(MpiPt2Pt, UnexpectedMessagesMatchLater) {
  spmd([&](Mpi& mpi) {
    const Comm w = mpi.world();
    const int me = mpi.rank(w);
    if (me == 0) {
      const auto small = ramp(8, 0.0);
      const auto big = ramp(65536, 1.0);
      std::vector<Request> reqs;
      reqs.push_back(mpi.isend(small.data(), 8 * sizeof(double), 6, 1, w));  // eager
      // The rendezvous isend cannot complete until rank 6 matches it, so
      // it must be nonblocking here (MPI_Send of a large message blocks).
      reqs.push_back(mpi.isend(big.data(), 65536 * sizeof(double), 6, 2, w));
      mpi.barrier(w);
      mpi.waitall(reqs);
    } else if (me == 6) {
      mpi.barrier(w);  // both messages are in flight / unexpected by now
      std::vector<double> big(65536), small(8);
      mpi.recv(big.data(), big.size() * sizeof(double), 0, 2, w);
      mpi.recv(small.data(), small.size() * sizeof(double), 0, 1, w);
      EXPECT_EQ(small, ramp(8, 0.0));
      EXPECT_EQ(big, ramp(65536, 1.0));
      EXPECT_GE(mpi.unexpected_messages(), 1u);
    } else {
      mpi.barrier(w);
    }
  });
}

TEST_F(MpiPt2Pt, TruncatedReceiveKeepsPrefix) {
  spmd([&](Mpi& mpi) {
    const Comm w = mpi.world();
    const int me = mpi.rank(w);
    if (me == 1) {
      const auto data = ramp(100, 5.0);
      mpi.send(data.data(), 100 * sizeof(double), 2, 0, w);
    } else if (me == 2) {
      std::vector<double> buf(10, -1.0);
      Status st;
      mpi.recv(buf.data(), 10 * sizeof(double), 1, 0, w, &st);
      EXPECT_EQ(st.bytes, 10 * sizeof(double));
      EXPECT_EQ(buf, ramp(10, 5.0));
    }
  });
}

TEST_F(MpiPt2Pt, TestPollsWithoutBlocking) {
  spmd([&](Mpi& mpi) {
    const Comm w = mpi.world();
    const int me = mpi.rank(w);
    if (me == 0) {
      int v = 0;
      Request r = mpi.irecv(&v, sizeof(v), 1, 0, w);
      // Nothing sent yet: test fails immediately.
      EXPECT_FALSE(mpi.test(r));
      mpi.barrier(w);
      while (!mpi.test(r)) {
      }
      EXPECT_EQ(v, 123);
    } else if (me == 1) {
      mpi.barrier(w);
      const int v = 123;
      mpi.send(&v, sizeof(v), 0, 0, w);
    } else {
      mpi.barrier(w);
    }
  });
}

TEST_F(MpiPt2Pt, WaitallCompletesAllToAllExchange) {
  // Every rank exchanges with every other, twice: the second round reuses
  // the request vector waitall left empty.
  spmd([&](Mpi& mpi) {
    const Comm w = mpi.world();
    const int me = mpi.rank(w);
    const int n = mpi.size(w);
    std::vector<Request> reqs;
    for (int round = 0; round < 2; ++round) {
      std::vector<int> recv(static_cast<std::size_t>(n), -1);
      for (int r = 0; r < n; ++r) {
        if (r == me) continue;
        reqs.push_back(mpi.irecv(&recv[static_cast<std::size_t>(r)], sizeof(int), r, round, w));
      }
      std::vector<int> send_vals(static_cast<std::size_t>(n), me);
      for (int r = 0; r < n; ++r) {
        if (r == me) continue;
        reqs.push_back(mpi.isend(&send_vals[static_cast<std::size_t>(r)], sizeof(int), r,
                                 round, w));
      }
      mpi.waitall(reqs);
      ASSERT_TRUE(reqs.empty());
      for (int r = 0; r < n; ++r) {
        if (r != me) {
          ASSERT_EQ(recv[static_cast<std::size_t>(r)], r);
        }
      }
    }
  });
}

}  // namespace
}  // namespace pamix::mpi
