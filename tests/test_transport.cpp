// Regression tests for the transport hot path: many-sender mailbox
// contention (run under TSan in CI), per-(sender,ctx) FIFO matching,
// payload-buffer pooling, test_any fairness, the G_pack accounting split
// between post and completion, truncation cost accounting, bitwise
// determinism of model runs, and single-copy (by-reference) delivery.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cartcomm/cartcomm.hpp"
#include "mpl/mpl.hpp"
#include "mpl/pool.hpp"

using mpl::Comm;
using mpl::Datatype;
using mpl::NetConfig;
using mpl::Request;
using mpl::Status;

namespace {

const Datatype kInt = Datatype::of<int>();

NetConfig exact_model() {
  NetConfig cfg;
  cfg.enabled = true;
  cfg.o = 1e-6;
  cfg.L = 5e-6;
  cfg.G = 1e-9;
  cfg.o_block = 1e-7;
  cfg.G_pack = 2e-9;
  return cfg;
}

}  // namespace

// -- many-sender stress (the TSan workload) ---------------------------------

TEST(TransportStress, SixteenSendersOneMailboxWaitAny) {
  // 16 senders flood one mailbox while the receiver drains through a
  // window of wildcard irecvs, wait_any, and interleaved iprobe calls —
  // the exact concurrency pattern the two-phase deliver/complete protocol
  // and the targeted wakeups must keep correct. Every (sender, seq) pair
  // must arrive exactly once.
  static constexpr int kSenders = 16;
  static constexpr int kPerSender = 150;
  static constexpr int kWindow = 8;
  mpl::run(kSenders + 1, [](Comm& c) {
    if (c.rank() == 0) {
      const int total = kSenders * kPerSender;
      std::vector<std::vector<bool>> seen(
          kSenders, std::vector<bool>(kPerSender, false));
      std::vector<std::array<int, 2>> bufs(kWindow);
      std::vector<Request> reqs(kWindow);
      int posted = 0;
      for (int i = 0; i < kWindow && posted < total; ++i, ++posted) {
        reqs[static_cast<std::size_t>(i)] =
            c.irecv(bufs[static_cast<std::size_t>(i)].data(), 2, kInt,
                    mpl::ANY_SOURCE, mpl::ANY_TAG);
      }
      for (int got = 0; got < total; ++got) {
        if (got % 64 == 0) {
          Status st;
          // Probe purely to contend the mailbox lock; a hit or miss are
          // both fine, the wait_any below consumes the traffic.
          (void)c.iprobe(mpl::ANY_SOURCE, mpl::ANY_TAG, &st);
        }
        std::size_t idx = 0;
        const Status st = mpl::wait_any(reqs, &idx);
        const auto& msg = bufs[idx];
        const int sender = msg[0] - 1;  // ranks 1..16
        const int seq = msg[1];
        ASSERT_GE(sender, 0);
        ASSERT_LT(sender, kSenders);
        ASSERT_GE(seq, 0);
        ASSERT_LT(seq, kPerSender);
        ASSERT_EQ(st.source, msg[0]);
        ASSERT_FALSE(seen[static_cast<std::size_t>(sender)]
                         [static_cast<std::size_t>(seq)])
            << "duplicate delivery from sender " << sender << " seq " << seq;
        seen[static_cast<std::size_t>(sender)][static_cast<std::size_t>(seq)] =
            true;
        if (posted < total) {
          reqs[idx] = c.irecv(bufs[idx].data(), 2, kInt, mpl::ANY_SOURCE,
                              mpl::ANY_TAG);
          ++posted;
        } else {
          reqs[idx] = Request();
        }
      }
      for (const auto& per_sender : seen) {
        for (bool hit : per_sender) EXPECT_TRUE(hit);
      }
    } else {
      for (int seq = 0; seq < kPerSender; ++seq) {
        const std::array<int, 2> msg{c.rank(), seq};
        c.send(msg.data(), 2, kInt, 0, /*tag=*/seq % 5);
      }
    }
  });
}

TEST(TransportStress, PerSenderFifoUnderContention) {
  // Blocking wildcard receives consume messages in matching order, so the
  // sequence numbers from any one sender must arrive strictly in send
  // order even while 16 senders interleave arbitrarily.
  static constexpr int kSenders = 16;
  static constexpr int kPerSender = 100;
  mpl::run(kSenders + 1, [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> next(kSenders, 0);
      for (int got = 0; got < kSenders * kPerSender; ++got) {
        std::array<int, 2> msg{-1, -1};
        const Status st = c.recv(msg.data(), 2, kInt, mpl::ANY_SOURCE);
        const int sender = msg[0] - 1;
        ASSERT_EQ(st.source, msg[0]);
        ASSERT_EQ(msg[1], next[static_cast<std::size_t>(sender)])
            << "FIFO violated for sender " << sender;
        ++next[static_cast<std::size_t>(sender)];
      }
    } else {
      for (int seq = 0; seq < kPerSender; ++seq) {
        const std::array<int, 2> msg{c.rank(), seq};
        c.send(msg.data(), 2, kInt, 0);
      }
    }
  });
}

// -- payload-buffer pooling --------------------------------------------------

TEST(TransportPool, RoundTripTrafficRecyclesBuffers) {
  // In a ping-pong the receiver hands each payload buffer back to the
  // sender's pool before the next send, so steady-state rounds allocate
  // nothing: the pool must report freelist hits and recycles on both ends.
  constexpr int kRounds = 64;
  mpl::run(2, [](Comm& c) {
    std::vector<int> buf(64, c.rank());
    for (int r = 0; r < kRounds; ++r) {
      if (c.rank() == 0) {
        c.send(buf.data(), 64, kInt, 1, 0);
        c.recv(buf.data(), 64, kInt, 1, 0);
      } else {
        c.recv(buf.data(), 64, kInt, 0, 0);
        c.send(buf.data(), 64, kInt, 0, 0);
      }
    }
    const auto s = mpl::this_proc()->pool().stats();
    EXPECT_GT(s.hits, 0u) << "steady-state sends never hit the freelist";
    EXPECT_GT(s.recycled, 0u) << "receivers never returned a buffer";
    EXPECT_GE(s.hits + s.misses, static_cast<std::uint64_t>(kRounds));
  });
}

// -- test_any fairness -------------------------------------------------------

TEST(TransportFairness, TestAnyRotatesItsStartIndex) {
  // With four completed requests, four consecutive test_any calls must
  // return four *distinct* indices. The old fixed scan-from-zero returned
  // index 0 every time, starving high indices under sustained traffic.
  mpl::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> bufs(4, -1);
      std::vector<Request> reqs(4);
      for (int t = 0; t < 4; ++t) {
        reqs[static_cast<std::size_t>(t)] =
            c.irecv(&bufs[static_cast<std::size_t>(t)], 1, kInt, 1, t);
      }
      c.hard_sync();  // recvs posted before any send departs
      c.hard_sync();  // all four sends delivered and completed
      std::array<bool, 4> returned{};
      for (int call = 0; call < 4; ++call) {
        std::size_t idx = 99;
        Status st;
        ASSERT_TRUE(mpl::test_any(reqs, &idx, &st));
        ASSERT_LT(idx, 4u);
        EXPECT_FALSE(returned[idx])
            << "test_any returned index " << idx << " twice in a row";
        returned[idx] = true;
      }
      for (int t = 0; t < 4; ++t) EXPECT_EQ(bufs[static_cast<std::size_t>(t)], t);
    } else {
      c.hard_sync();
      for (int t = 0; t < 4; ++t) c.send(&t, 1, kInt, 0, t);
      c.hard_sync();
    }
  });
}

// -- G_pack accounting -------------------------------------------------------

TEST(NetClockGPack, PostRecvChargesOverheadOnly) {
  // Posting a receive knows only the *capacity*, so it must charge just
  // o + blocks*o_block; the datatype-scatter cost waits for the actual
  // message size at completion.
  const NetConfig cfg = exact_model();
  mpl::NetClock clk;
  clk.configure(cfg, 0);
  clk.post_recv(4);
  EXPECT_DOUBLE_EQ(clk.now(), cfg.o + 4 * cfg.o_block);
}

TEST(NetClockGPack, CompleteRecvChargesPackOnActualBytes) {
  const NetConfig cfg = exact_model();
  mpl::NetClock clk;
  clk.configure(cfg, 0);
  mpl::NetClock::RecvTiming t;
  const double ready =
      clk.complete_recv(/*depart=*/0.0, /*bytes=*/1000, /*from_self=*/false,
                        /*packed=*/true, &t);
  EXPECT_DOUBLE_EQ(ready, cfg.L + cfg.G * 1000 + cfg.G_pack * 1000);
  EXPECT_DOUBLE_EQ(t.g_pack, cfg.G_pack * 1000);
  EXPECT_DOUBLE_EQ(t.g, cfg.G * 1000);
  EXPECT_DOUBLE_EQ(t.latency, cfg.L);
}

TEST(NetClockGPack, DenseMessagePaysNoPack) {
  const NetConfig cfg = exact_model();
  mpl::NetClock clk;
  clk.configure(cfg, 0);
  const double ready = clk.complete_recv(0.0, 1000, false, /*packed=*/false);
  EXPECT_DOUBLE_EQ(ready, cfg.L + cfg.G * 1000);
}

TEST(NetClockGPack, ScatterOverlapsNextWireTransfer) {
  // The receive port frees at *wire* completion — the scatter is CPU
  // time — so a second back-to-back arrival queues behind the first
  // message's wire time only, not its G_pack.
  const NetConfig cfg = exact_model();
  mpl::NetClock clk;
  clk.configure(cfg, 0);
  const double r1 = clk.complete_recv(0.0, 1000, false, true);
  const double wire1 = cfg.L + cfg.G * 1000;
  EXPECT_DOUBLE_EQ(r1, wire1 + cfg.G_pack * 1000);
  const double r2 = clk.complete_recv(0.0, 1000, false, true);
  EXPECT_DOUBLE_EQ(r2, wire1 + cfg.G * 1000 + cfg.G_pack * 1000);
}

TEST(NetModelGPack, NonContiguousRoundTripClosedForm) {
  // End to end: a 4-block strided message charges G_pack at both ends on
  // the 16 payload bytes, and the receiver's clock lands exactly on
  //   depart + L + G*16 + G_pack*16
  // with depart = o + 4*o_block + G_pack*16 at the sender.
  mpl::RunOptions opts;
  opts.net = exact_model();
  const NetConfig& cfg = opts.net;
  mpl::run(
      2,
      [&](Comm& c) {
        const Datatype vec = Datatype::vector(4, 1, 2, kInt);
        ASSERT_EQ(vec.size(), 16u);
        if (c.rank() == 0) {
          std::array<int, 8> src{0, 1, 2, 3, 4, 5, 6, 7};
          c.send(src.data(), 1, vec, 1, 0);
          const double depart = cfg.o + 4 * cfg.o_block + cfg.G_pack * 16;
          EXPECT_NEAR(c.vclock(), depart, 1e-15);
        } else {
          std::array<int, 8> dst{};
          c.recv(dst.data(), 1, vec, 0, 0);
          EXPECT_EQ(dst[0], 0);
          EXPECT_EQ(dst[2], 2);
          EXPECT_EQ(dst[4], 4);
          EXPECT_EQ(dst[6], 6);
          const double depart = cfg.o + 4 * cfg.o_block + cfg.G_pack * 16;
          const double expect =
              depart + cfg.L + cfg.G * 16 + cfg.G_pack * 16;
          EXPECT_NEAR(c.vclock(), expect, 1e-15);
        }
      },
      opts);
}

// -- truncation --------------------------------------------------------------

TEST(TransportTruncation, AccountsWireCostBeforeThrowing) {
  // A truncated message still crossed the wire: the receiver's clock must
  // advance past the full transfer of the *actual* incoming bytes even
  // though the receive is reported as an error. Only the unpack (and its
  // G_pack, for dense messages zero anyway) is suppressed.
  mpl::RunOptions opts;
  opts.net = exact_model();
  const NetConfig& cfg = opts.net;
  mpl::run(
      2,
      [&](Comm& c) {
        if (c.rank() == 0) {
          std::array<int, 8> big{};
          c.send(big.data(), 8, kInt, 1, 0);
        } else {
          std::array<int, 4> small{};
          EXPECT_THROW(c.recv(small.data(), 4, kInt, 0, 0), mpl::Error);
          const double depart = cfg.o + cfg.o_block;  // dense, 1 block
          const double expect = depart + cfg.L + cfg.G * 32;
          EXPECT_NEAR(c.vclock(), expect, 1e-15);
        }
      },
      opts);
}

TEST(TransportTruncation, FastPathReportsTruncationToo) {
  // With the model off, a blocking receive of an already-queued message
  // takes the no-request fast path; it must surface the same error.
  mpl::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      std::array<int, 8> big{};
      c.send(big.data(), 8, kInt, 1, 0);
      c.hard_sync();  // message queued as unexpected before the recv
    } else {
      c.hard_sync();
      std::array<int, 4> small{};
      EXPECT_THROW(c.recv(small.data(), 4, kInt, 0, 0), mpl::Error);
    }
  });
}

// -- determinism -------------------------------------------------------------

namespace {

// One 5-point persistent-schedule exchange on a 3x3 torus; returns every
// rank's final vclock plus rank 0's schedule dump.
std::pair<std::vector<double>, std::string> run_schedule_once() {
  std::vector<double> clocks(9, 0.0);
  std::string dump;
  mpl::RunOptions opts;
  opts.net = NetConfig::gemini();
  mpl::run(
      9,
      [&](Comm& world) {
        const auto nb =
            cartcomm::Neighborhood::von_neumann(2, /*include_self=*/false);
        const std::vector<int> dims{3, 3};
        const std::vector<int> periods{1, 1};
        auto cc = cartcomm::cart_neighborhood_create(world, dims, periods, nb);
        const int t = nb.count();
        std::vector<int> sb(static_cast<std::size_t>(t) * 4, world.rank());
        std::vector<int> rb(static_cast<std::size_t>(t) * 4, -1);
        std::vector<cartcomm::SendBlock> sends(static_cast<std::size_t>(t));
        std::vector<cartcomm::RecvBlock> recvs(static_cast<std::size_t>(t));
        for (int i = 0; i < t; ++i) {
          sends[static_cast<std::size_t>(i)] = {&sb[static_cast<std::size_t>(i) * 4],
                                                4, kInt};
          recvs[static_cast<std::size_t>(i)] = {&rb[static_cast<std::size_t>(i) * 4],
                                                4, kInt};
        }
        cartcomm::Schedule s = cartcomm::build_alltoall_schedule(cc, sends, recvs);
        for (int round = 0; round < 3; ++round) s.execute(cc.comm());
        clocks[static_cast<std::size_t>(world.rank())] = world.vclock();
        if (world.rank() == 0) dump = s.dump();
      },
      opts);
  return {clocks, dump};
}

}  // namespace

TEST(TransportDeterminism, ModelRunsAreBitIdentical) {
  // The hot-path rework (two-phase delivery, pooling, targeted wakeups,
  // lock-free polling) must not leak host scheduling into results: two
  // identical runs produce bitwise-equal virtual clocks and an identical
  // schedule dump.
  const auto a = run_schedule_once();
  const auto b = run_schedule_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_GT(a.first[0], 0.0);
}

// -- single-copy delivery ----------------------------------------------------
//
// Comm::isend_ref (the schedule executor's send for rounds of at least
// cartcomm::kSingleCopyBytes) travels by reference: no pool buffer, and
// the receiver copies straight from the sender's datatype in its own
// wait/test, then completes the sender's request.

namespace {

constexpr int kRefInts = static_cast<int>(cartcomm::kSingleCopyBytes / sizeof(int));

int ref_value(int src, int idx, int iter, int elem) {
  return static_cast<int>((static_cast<unsigned>(src) * 2654435761u) ^
                          (static_cast<unsigned>(idx) * 40503u) ^
                          (static_cast<unsigned>(iter) * 97u) ^
                          static_cast<unsigned>(elem));
}

/// The fault and timeout cases configure RunOptions::faults; the ctest
/// harness exports MPL_TIMEOUT_MS (and a fault matrix may export
/// MPL_FAULTS), and the environment would override it.
class TransportSingleCopy : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("MPL_FAULTS");
    unsetenv("MPL_TIMEOUT_MS");
  }
};

std::uint64_t pool_acquires() {
  const auto s = mpl::this_proc()->pool().stats();
  return s.hits + s.misses;
}

// Repeated persistent executions of a neighbourhood alltoall whose blocks
// are all at least the single-copy size; every block is checked against
// the oracle after every execution, and the sender's pool is never used.
void persistent_ref_exchange(int p, std::vector<int> dims,
                             const cartcomm::Neighborhood& nb,
                             cartcomm::Algorithm alg, int m) {
  mpl::run(p, [&](Comm& world) {
    auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
    const int t = nb.count();
    const std::size_t ut = static_cast<std::size_t>(t);
    const std::size_t um = static_cast<std::size_t>(m);
    std::vector<int> sb(ut * um), rb(ut * um, -1);
    auto op = cartcomm::alltoall_init(sb.data(), m, kInt, rb.data(), m, kInt,
                                      cc, alg);
    const std::uint64_t acquired = pool_acquires();
    for (int iter = 0; iter < 12; ++iter) {
      for (std::size_t i = 0; i < ut; ++i) {
        for (std::size_t e = 0; e < um; ++e) {
          sb[i * um + e] = ref_value(world.rank(), static_cast<int>(i), iter,
                                     static_cast<int>(e));
        }
      }
      op.execute();
      for (std::size_t i = 0; i < ut; ++i) {
        const int src = cc.source_ranks()[i];
        for (std::size_t e = 0; e < um; ++e) {
          ASSERT_EQ(rb[i * um + e], ref_value(src, static_cast<int>(i), iter,
                                              static_cast<int>(e)))
              << "rank " << world.rank() << " block " << i << " elem " << e
              << " iteration " << iter;
        }
      }
    }
    EXPECT_EQ(pool_acquires(), acquired)
        << "a by-reference execution packed into the sender's pool";
    // A one-shot execution (no scratch, fresh send states) as well.
    std::vector<cartcomm::SendBlock> sends(ut);
    std::vector<cartcomm::RecvBlock> recvs(ut);
    for (std::size_t i = 0; i < ut; ++i) {
      sends[i] = {&sb[i * um], m, kInt};
      recvs[i] = {&rb[i * um], m, kInt};
    }
    std::fill(rb.begin(), rb.end(), -1);
    cartcomm::build_alltoall_schedule(cc, sends, recvs).execute(cc.comm());
    for (std::size_t i = 0; i < ut; ++i) {
      ASSERT_EQ(rb[i * um + um - 1],
                ref_value(cc.source_ranks()[i], static_cast<int>(i), 11,
                          m - 1));
    }
  });
}

}  // namespace

TEST_F(TransportSingleCopy, PersistentTrivialMatchesOracleWithoutPool) {
  persistent_ref_exchange(4, {2, 2}, cartcomm::Neighborhood::von_neumann(2),
                          cartcomm::Algorithm::trivial, kRefInts);
}

TEST_F(TransportSingleCopy, PersistentCombiningMatchesOracleWithoutPool) {
  // Moore on a 3x3 torus forwards diagonal blocks through temp and receive
  // slots across phases: each phase's sends must drain before the next
  // phase's receives and forwards touch the bytes they read.
  persistent_ref_exchange(9, {3, 3}, cartcomm::Neighborhood::moore(2),
                          cartcomm::Algorithm::combining, kRefInts + 3);
}

TEST_F(TransportSingleCopy, ReceivePostedFirstCopiesInWait) {
  mpl::run(2, [](Comm& c) {
    std::vector<int> buf(static_cast<std::size_t>(kRefInts));
    if (c.rank() == 0) {
      for (int e = 0; e < kRefInts; ++e) {
        buf[static_cast<std::size_t>(e)] = ref_value(0, 0, 0, e);
      }
      c.hard_sync();  // the receive is posted
      std::shared_ptr<mpl::detail::ReqState> slot;
      Request s = c.isend_ref(slot, buf.data(), kRefInts, kInt, 1, 3);
      EXPECT_FALSE(s.test()) << "a by-reference send completed unreceived";
      const std::uint64_t acquired = pool_acquires();
      c.hard_sync();  // matched and attached, not yet copied
      s.wait();
      EXPECT_EQ(pool_acquires(), acquired);
    } else {
      std::fill(buf.begin(), buf.end(), -1);
      Request r = c.irecv(buf.data(), kRefInts, kInt, 0, 3);
      c.hard_sync();
      c.hard_sync();
      // The match attached the sender's layout; nothing is copied until
      // the receiver's own wait.
      EXPECT_EQ(buf.front(), -1);
      EXPECT_EQ(buf.back(), -1);
      const Status st = r.wait();
      EXPECT_EQ(st.bytes, cartcomm::kSingleCopyBytes);
      for (int e = 0; e < kRefInts; ++e) {
        ASSERT_EQ(buf[static_cast<std::size_t>(e)], ref_value(0, 0, 0, e));
      }
    }
  });
}

TEST_F(TransportSingleCopy, MessageQueuedFirstProbesAndCopiesInWait) {
  mpl::run(2, [](Comm& c) {
    std::vector<int> buf(static_cast<std::size_t>(kRefInts));
    if (c.rank() == 0) {
      for (int e = 0; e < kRefInts; ++e) {
        buf[static_cast<std::size_t>(e)] = ref_value(0, 1, 0, e);
      }
      std::shared_ptr<mpl::detail::ReqState> slot;
      Request s = c.isend_ref(slot, buf.data(), kRefInts, kInt, 1, 4);
      c.hard_sync();  // queued as unexpected
      s.wait();
    } else {
      c.hard_sync();
      Status pst;
      ASSERT_TRUE(c.iprobe(0, 4, &pst));
      EXPECT_EQ(pst.bytes, cartcomm::kSingleCopyBytes);
      EXPECT_EQ(c.probe(0, 4).bytes, cartcomm::kSingleCopyBytes);
      std::fill(buf.begin(), buf.end(), -1);
      Request r = c.irecv(buf.data(), kRefInts, kInt, 0, 4);
      EXPECT_EQ(buf.front(), -1);
      Status st;
      ASSERT_TRUE(r.test(&st));  // matched at post; test does the copy
      EXPECT_EQ(st.bytes, cartcomm::kSingleCopyBytes);
      for (int e = 0; e < kRefInts; ++e) {
        ASSERT_EQ(buf[static_cast<std::size_t>(e)], ref_value(0, 1, 0, e));
      }
    }
  });
}

TEST_F(TransportSingleCopy, StridedToStridedCopiesInOnePass) {
  // Sender blocks of 3 ints every 5, receiver blocks of 7 every 9: the
  // block boundaries of the two layouts never line up.
  constexpr int kSendVec = 7 * 1024;  // 3-int blocks
  constexpr int kRecvVec = 3 * 1024;  // 7-int blocks
  static_assert(kSendVec * 3 * sizeof(int) >= cartcomm::kSingleCopyBytes);
  const Datatype stype = Datatype::vector(kSendVec, 3, 5, kInt);
  const Datatype rtype = Datatype::vector(kRecvVec, 7, 9, kInt);
  ASSERT_EQ(stype.size(), rtype.size());
  mpl::run(2, [&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> src(static_cast<std::size_t>(kSendVec) * 5);
      for (std::size_t i = 0; i < src.size(); ++i) {
        src[i] = static_cast<int>(i);
      }
      std::shared_ptr<mpl::detail::ReqState> slot;
      c.isend_ref(slot, src.data(), 1, stype, 1, 5).wait();
    } else {
      std::vector<int> dst(static_cast<std::size_t>(kRecvVec) * 9, -1);
      c.irecv(dst.data(), 1, rtype, 0, 5).wait();
      // Oracle: the k-th packed int of the sender lands at the k-th
      // packed slot of the receiver; gaps stay untouched.
      int k = 0;
      for (int b = 0; b < kRecvVec; ++b) {
        for (int j = 0; j < 9; ++j) {
          const int got = dst[static_cast<std::size_t>(b * 9 + j)];
          if (j >= 7) {
            ASSERT_EQ(got, -1);
            continue;
          }
          ASSERT_EQ(got, (k / 3) * 5 + k % 3) << "packed int " << k;
          ++k;
        }
      }
    }
  });
}

TEST_F(TransportSingleCopy, TruncationErrorsReceiverAndCompletesSender) {
  mpl::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> big(static_cast<std::size_t>(kRefInts) * 2, 7);
      std::shared_ptr<mpl::detail::ReqState> slot;
      Request s = c.isend_ref(slot, big.data(), kRefInts * 2, kInt, 1, 6);
      s.wait();  // completes although the receiver never copies
    } else {
      std::vector<int> small(static_cast<std::size_t>(kRefInts), -1);
      Request r = c.irecv(small.data(), kRefInts, kInt, 0, 6);
      EXPECT_THROW(r.wait(), mpl::Error);
      EXPECT_EQ(small.front(), -1);
      EXPECT_EQ(small.back(), -1);
    }
  });
}

TEST_F(TransportSingleCopy, BlockingRecvFastPathCopiesFromSender) {
  // Model off and the message already queued: Comm::recv consumes it
  // without a request, copying straight from the sender's buffer; a
  // truncated one throws and still completes the sender.
  mpl::run(2, [](Comm& c) {
    std::vector<int> buf(static_cast<std::size_t>(kRefInts));
    if (c.rank() == 0) {
      for (int e = 0; e < kRefInts; ++e) {
        buf[static_cast<std::size_t>(e)] = ref_value(0, 2, 0, e);
      }
      std::shared_ptr<mpl::detail::ReqState> s1, s2;
      Request a = c.isend_ref(s1, buf.data(), kRefInts, kInt, 1, 7);
      Request b = c.isend_ref(s2, buf.data(), kRefInts, kInt, 1, 8);
      c.hard_sync();
      a.wait();
      b.wait();
    } else {
      c.hard_sync();
      std::fill(buf.begin(), buf.end(), -1);
      const Status st = c.recv(buf.data(), kRefInts, kInt, 0, 7);
      EXPECT_EQ(st.bytes, cartcomm::kSingleCopyBytes);
      for (int e = 0; e < kRefInts; ++e) {
        ASSERT_EQ(buf[static_cast<std::size_t>(e)], ref_value(0, 2, 0, e));
      }
      std::vector<int> small(16);
      EXPECT_THROW(c.recv(small.data(), 16, kInt, 0, 8), mpl::Error);
    }
  });
}

TEST_F(TransportSingleCopy, FaultedModelRunsAreBitIdentical) {
  // Drops (retransmitted inline) and delays act on the envelope, not on
  // the payload form: two same-seed runs give bit-identical clocks and
  // correct data.
  mpl::FaultConfig f;
  f.seed = 4242;
  f.drop = 0.3;
  f.max_retries = 64;
  f.delay_prob = 0.5;
  f.delay = 5e-6;
  const auto clocks = [&f] {
    std::vector<double> out(4, -1.0);
    mpl::RunOptions opts;
    opts.net = NetConfig::omnipath();
    opts.faults = f;
    mpl::run(
        4,
        [&out](Comm& world) {
          const auto nb = cartcomm::Neighborhood::von_neumann(2);
          const std::vector<int> dims{2, 2};
          auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
          const std::size_t t = static_cast<std::size_t>(nb.count());
          const std::size_t m = static_cast<std::size_t>(kRefInts);
          std::vector<int> sb(t * m), rb(t * m, -1);
          for (std::size_t i = 0; i < t * m; ++i) {
            sb[i] = ref_value(world.rank(), static_cast<int>(i / m), 0,
                              static_cast<int>(i % m));
          }
          auto op = cartcomm::alltoall_init(sb.data(), kRefInts, kInt,
                                            rb.data(), kRefInts, kInt, cc,
                                            cartcomm::Algorithm::trivial);
          for (int k = 0; k < 3; ++k) op.execute();
          for (std::size_t i = 0; i < t * m; ++i) {
            ASSERT_EQ(rb[i], ref_value(cc.source_ranks()[i / m],
                                       static_cast<int>(i / m), 0,
                                       static_cast<int>(i % m)));
          }
          out[static_cast<std::size_t>(world.rank())] = world.vclock();
        },
        opts);
    return out;
  };
  const std::vector<double> a = clocks();
  const std::vector<double> b = clocks();
  EXPECT_EQ(a, b);
  EXPECT_GT(a[0], 0.0);
}

TEST_F(TransportSingleCopy, TimeoutDumpNamesPendingReferenceAndBlockedSend) {
  // The receive is never posted. Rank 1 times out first (rank 0 starts its
  // wait later), so its dump shows rank 0 still parked on the send and
  // the by-reference message still queued at rank 1.
  mpl::RunOptions opts;
  opts.faults.timeout_ms = 300;
  try {
    mpl::run(
        2,
        [](Comm& c) {
          std::vector<int> buf(static_cast<std::size_t>(kRefInts), 1);
          c.hard_sync();
          if (c.rank() == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            std::shared_ptr<mpl::detail::ReqState> slot;
            c.isend_ref(slot, buf.data(), kRefInts, kInt, 1, 9).wait();
          } else {
            int v = 0;
            c.recv(&v, 1, kInt, 0, 10);  // never sent
          }
        },
        opts);
    FAIL() << "expected mpl::TimeoutError";
  } catch (const mpl::TimeoutError& e) {
    const std::string dump = e.pending_dump();
    EXPECT_NE(dump.find("rank 0: blocked on by-reference send (ctx=0 dest=1 "
                        "tag=9)"),
              std::string::npos)
        << dump;
    EXPECT_NE(dump.find("undelivered inbound: [from=0 ctx=0 tag=9 bytes=" +
                        std::to_string(cartcomm::kSingleCopyBytes) + " by-ref]"),
              std::string::npos)
        << dump;
  }
}
