// Heap allocations of a schedule bind and of a blocking one-shot call.
//
// A bind lays every round and copy type, the temp pool and the round
// offsets out in one arena sized by a counting pass (CompiledPlan::bind,
// mpl::TypeArena), so it allocates the same few times whatever the round
// and block count. A steady-state one-shot call (one plan lookup, one
// bind, one execution out of the rank's scratch) then allocates a
// constant number of times too. Global operator new is replaced in this
// binary to count allocations per thread; every count is taken on the
// calling rank's own thread.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "cartcomm/cartcomm.hpp"
#include "cartcomm/plan.hpp"
#include "mpl/mpl.hpp"

namespace {
thread_local long tl_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++tl_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t n, std::align_val_t al) {
  ++tl_allocs;
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++tl_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++tl_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using cartcomm::Algorithm;
using cartcomm::Neighborhood;
using cartcomm::RecvBlock;
using cartcomm::SendBlock;

namespace {

/// Allocations `f` makes on the calling thread.
template <class F>
long allocations(F&& f) {
  const long before = tl_allocs;
  f();
  return tl_allocs - before;
}

struct BindCounts {
  int rounds[3] = {0, 0, 0};  // alltoall, allgather, reduce
  long allocs[3] = {0, 0, 0};
};

/// Compile the combining alltoall, allgather and reduce plans of `nb` on
/// this rank and count the allocations of one bind of each (the schedule's
/// destruction included). Blocks are one 8-byte element each, as in the
/// cartbench call workloads.
BindCounts count_binds(const cartcomm::CartNeighborComm& cc) {
  const int t = cc.neighbor_count();
  const auto u64 = mpl::Datatype::of<std::uint64_t>();
  const auto i32 = mpl::Datatype::of<std::int32_t>();
  std::vector<std::uint64_t> a2s(static_cast<std::size_t>(t)),
      a2r(static_cast<std::size_t>(t)), agr(static_cast<std::size_t>(t));
  std::uint64_t ags = 0;
  std::int32_t rs[2] = {0, 0}, rr[2] = {0, 0};
  std::vector<SendBlock> sends;
  std::vector<RecvBlock> recvs, ag_recvs;
  for (std::size_t i = 0; i < static_cast<std::size_t>(t); ++i) {
    sends.push_back({&a2s[i], 1, u64});
    recvs.push_back({&a2r[i], 1, u64});
    ag_recvs.push_back({&agr[i], 1, u64});
  }
  const SendBlock ag_send{&ags, 1, u64};
  const SendBlock red_send{rs, 2, i32};
  const RecvBlock red_recv[1] = {{rr, 2, i32}};
  const auto op = mpl::ReduceOp::sum<std::int32_t>();
  const std::vector<std::size_t> bytes(static_cast<std::size_t>(t), 8);

  const cartcomm::CompiledPlan plans[3] = {
      cartcomm::compile_alltoall_plan(cc, bytes),
      cartcomm::compile_allgather_plan(cc, 8, cc.allgather_order()),
      cartcomm::compile_reduce_plan(cc, cartcomm::ReduceVariant::reduce, true,
                                    cartcomm::DimOrder::increasing_ck, 8, 2)};
  BindCounts out;
  for (int k = 0; k < 3; ++k) out.rounds[k] = plans[k].rounds();
  out.allocs[0] = allocations([&] { (void)plans[0].bind(cc, sends, recvs); });
  out.allocs[1] = allocations(
      [&] { (void)plans[1].bind(cc, {&ag_send, 1}, ag_recvs); });
  out.allocs[2] = allocations(
      [&] { (void)plans[2].bind(cc, {&red_send, 1}, red_recv, op); });
  return out;
}

}  // namespace

TEST(BindAllocations, IndependentOfScheduleSize) {
  // 2x2 torus. stencil(2, 9, -1) is the t = 81 neighbourhood of the
  // cartbench call workloads (16 rounds per plan); the von Neumann
  // neighbourhood with its centre is t = 5. Both hold the zero vector, so
  // both plans have the same kinds of parts (rounds, copies, folds).
  mpl::run(4, [](mpl::Comm& world) {
    const std::vector<int> dims{2, 2};
    const auto big = cartcomm::cart_neighborhood_create(
        world, dims, {}, Neighborhood::stencil(2, 9, -1));
    const auto small = cartcomm::cart_neighborhood_create(
        world, dims, {}, Neighborhood::von_neumann(2, true));
    ASSERT_EQ(big.neighbor_count(), 81);
    ASSERT_EQ(small.neighbor_count(), 5);
    const BindCounts b = count_binds(big);
    const BindCounts s = count_binds(small);
    const char* names[3] = {"alltoall", "allgather", "reduce"};
    for (int k = 0; k < 3; ++k) {
      EXPECT_GT(b.rounds[k], s.rounds[k]) << names[k];
      EXPECT_EQ(b.allocs[k], s.allocs[k])
          << names[k] << " on rank " << world.rank() << ": t=81 bind made "
          << b.allocs[k] << " allocations, t=5 bind " << s.allocs[k];
      // The arena plus the round, phase, copy and fold lists.
      EXPECT_LE(b.allocs[k], 5) << names[k];
    }
  });
}

TEST(OneShotAllocations, SteadyStateCallsAllocateAConstantNumberOfTimes) {
  // Injected pool misses allocate by design; this test counts the path
  // with nothing armed.
  unsetenv("MPL_FAULTS");
  // One rank on a 1x1 torus: every neighbour is this rank, so each call
  // runs start to finish on this thread in a fixed order.
  mpl::run(1, [](mpl::Comm& world) {
    const std::vector<int> dims{1, 1};
    const auto cc = cartcomm::cart_neighborhood_create(
        world, dims, {}, Neighborhood::stencil(2, 9, -1));
    const int t = cc.neighbor_count();
    const auto u64 = mpl::Datatype::of<std::uint64_t>();
    const auto i32 = mpl::Datatype::of<std::int32_t>();
    std::vector<std::uint64_t> a2s(static_cast<std::size_t>(t)),
        a2r(static_cast<std::size_t>(t)), agr(static_cast<std::size_t>(t));
    std::uint64_t ags = 7;
    std::int32_t rs[2] = {3, 4}, rr[2] = {0, 0};
    const auto op = mpl::ReduceOp::sum<std::int32_t>();
    auto call = [&](int kind, int k) {
      for (int i = 0; i < t; ++i) {
        a2s[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(k * t + i);
      }
      if (kind == 0) {
        cartcomm::alltoall(a2s.data(), 1, u64, a2r.data(), 1, u64, cc,
                           Algorithm::combining);
        // Every neighbour is this rank: block i comes back as block i.
        for (int i = 0; i < t; ++i) {
          ASSERT_EQ(a2r[static_cast<std::size_t>(i)],
                    static_cast<std::uint64_t>(k * t + i));
        }
      } else if (kind == 1) {
        cartcomm::allgather(&ags, 1, u64, agr.data(), 1, u64, cc,
                            Algorithm::combining);
        for (const std::uint64_t v : agr) ASSERT_EQ(v, ags);
      } else {
        (void)cartcomm::cart_neighbor_allreduce(rs, rr, 2, i32, op, cc,
                                                Algorithm::combining);
        ASSERT_EQ(rr[0], 3 * t);
        ASSERT_EQ(rr[1], 4 * t);
      }
    };
    // Warm up: compile the three plans, size the scratch and the pools.
    for (int k = 0; k < 6; ++k) call(k % 3, k);
    // Interleaved, as the cartbench call workloads run them, then each
    // kind back to back.
    long first[3] = {-1, -1, -1};
    for (int k = 0; k < 30; ++k) {
      const int kind = k % 3;
      const long n = allocations([&] { call(kind, k); });
      if (first[kind] < 0) first[kind] = n;
      EXPECT_EQ(n, first[kind]) << "kind " << kind << " call " << k;
    }
    for (int kind = 0; kind < 3; ++kind) {
      for (int k = 0; k < 10; ++k) {
        EXPECT_EQ(allocations([&] { call(kind, k); }), first[kind])
            << "kind " << kind << " repeated call " << k;
      }
    }
  });
}
