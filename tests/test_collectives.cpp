// Baseline collectives against naive references.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mpl/mpl.hpp"

using mpl::Comm;
using mpl::Datatype;

namespace {
const Datatype kInt = Datatype::of<int>();

class CollectiveSizes : public ::testing::TestWithParam<int> {};

}  // namespace

TEST(CopyTyped, StridedToContiguous) {
  std::vector<int> src(8);
  std::iota(src.begin(), src.end(), 0);
  std::vector<int> dst(4, -1);
  Datatype strided = Datatype::vector(4, 1, 2, kInt);  // 0,2,4,6
  mpl::copy_typed(src.data(), 1, strided, dst.data(), 4, kInt);
  EXPECT_EQ(dst, (std::vector<int>{0, 2, 4, 6}));
}

TEST(CopyTyped, StridedToDifferentlyStridedUnalignedBlocks) {
  // Source blocks of 3 ints every 5 (count 2 of a resized element), sink
  // blocks of 4 ints every 6: no block boundary of one layout lines up
  // with the other's, so every piece is split across both walks.
  const Datatype three = Datatype::vector(4, 3, 5, kInt);  // 12 ints
  const Datatype four = Datatype::vector(6, 4, 6, kInt);   // 24 ints
  std::vector<int> src(40);
  std::iota(src.begin(), src.end(), 0);
  std::vector<int> dst(36, -1);
  mpl::copy_typed(src.data(), 2, three, dst.data(), 1, four);
  // Oracle through an explicit pack/unpack staging buffer.
  std::vector<std::byte> staged(three.pack_size(2));
  three.pack(src.data(), 2, staged.data());
  std::vector<int> expect(36, -1);
  four.unpack(staged.data(), expect.data(), 1);
  EXPECT_EQ(dst, expect);
  EXPECT_EQ(dst[0], 0);
  EXPECT_EQ(dst[3], 5);  // packed int 3 = source index 5
  EXPECT_EQ(dst[4], -1);  // sink gap untouched
}

TEST(CopyTyped, ZeroBytesTouchNoPointer) {
  // Null buffers with zero-sized copies: nothing may be dereferenced or
  // handed to memcpy (UBSan's nonnull check).
  mpl::copy_typed(nullptr, 0, kInt, nullptr, 0, kInt);
  mpl::copy_typed(nullptr, 3, Datatype::bytes(0), nullptr, 0,
                  Datatype::vector(2, 1, 3, kInt));
  EXPECT_EQ(mpl::copy_typed_bytes(nullptr, 4, kInt, nullptr, 4, kInt, 0), 0u);
}

TEST(CopyTyped, SizeMismatchThrows) {
  std::vector<int> a(4), b(4);
  EXPECT_THROW(mpl::copy_typed(a.data(), 3, kInt, b.data(), 4, kInt), mpl::Error);
}

TEST_P(CollectiveSizes, BarrierCompletes) {
  mpl::run(GetParam(), [](Comm& c) {
    for (int i = 0; i < 5; ++i) mpl::barrier(c);
  });
}

TEST_P(CollectiveSizes, BcastFromEveryRoot) {
  const int p = GetParam();
  mpl::run(p, [](Comm& c) {
    for (int root = 0; root < c.size(); ++root) {
      std::vector<int> buf(4, -1);
      if (c.rank() == root) {
        std::iota(buf.begin(), buf.end(), root * 10);
      }
      mpl::bcast(buf.data(), 4, kInt, root, c);
      for (int i = 0; i < 4; ++i) EXPECT_EQ(buf[static_cast<std::size_t>(i)], root * 10 + i);
    }
  });
}

TEST_P(CollectiveSizes, GatherCollectsInRankOrder) {
  const int p = GetParam();
  mpl::run(p, [](Comm& c) {
    const int v[2] = {c.rank(), c.rank() + 100};
    std::vector<int> all(static_cast<std::size_t>(2 * c.size()), -1);
    mpl::gather(v, 2, kInt, all.data(), 2, kInt, 0, c);
    if (c.rank() == 0) {
      for (int i = 0; i < c.size(); ++i) {
        EXPECT_EQ(all[static_cast<std::size_t>(2 * i)], i);
        EXPECT_EQ(all[static_cast<std::size_t>(2 * i + 1)], i + 100);
      }
    }
  });
}

TEST_P(CollectiveSizes, ScatterDistributes) {
  const int p = GetParam();
  mpl::run(p, [](Comm& c) {
    std::vector<int> all;
    if (c.rank() == 1 % c.size()) {
      all.resize(static_cast<std::size_t>(c.size()));
      std::iota(all.begin(), all.end(), 50);
    }
    int v = -1;
    mpl::scatter(all.data(), 1, kInt, &v, 1, kInt, 1 % c.size(), c);
    EXPECT_EQ(v, 50 + c.rank());
  });
}

TEST_P(CollectiveSizes, AllgatherEveryoneSeesAll) {
  const int p = GetParam();
  mpl::run(p, [](Comm& c) {
    const int v = c.rank() * 3;
    std::vector<int> all(static_cast<std::size_t>(c.size()), -1);
    mpl::allgather(&v, 1, kInt, all.data(), 1, kInt, c);
    for (int i = 0; i < c.size(); ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], 3 * i);
  });
}

TEST_P(CollectiveSizes, AllgathervRaggedBlocks) {
  const int p = GetParam();
  mpl::run(p, [](Comm& c) {
    // Process r contributes r+1 copies of r.
    std::vector<int> mine(static_cast<std::size_t>(c.rank() + 1), c.rank());
    std::vector<int> counts(static_cast<std::size_t>(c.size()));
    std::vector<int> displs(static_cast<std::size_t>(c.size()));
    int total = 0;
    for (int i = 0; i < c.size(); ++i) {
      counts[static_cast<std::size_t>(i)] = i + 1;
      displs[static_cast<std::size_t>(i)] = total;
      total += i + 1;
    }
    std::vector<int> all(static_cast<std::size_t>(total), -1);
    mpl::allgatherv(mine.data(), c.rank() + 1, kInt, all.data(), counts, displs,
                    kInt, c);
    for (int i = 0; i < c.size(); ++i) {
      for (int j = 0; j <= i; ++j) {
        EXPECT_EQ(all[static_cast<std::size_t>(displs[static_cast<std::size_t>(i)] + j)], i);
      }
    }
  });
}

TEST_P(CollectiveSizes, AlltoallTransposes) {
  const int p = GetParam();
  mpl::run(p, [](Comm& c) {
    const int n = c.size();
    std::vector<int> out(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      out[static_cast<std::size_t>(i)] = c.rank() * 1000 + i;
    std::vector<int> in(static_cast<std::size_t>(n), -1);
    mpl::alltoall(out.data(), 1, kInt, in.data(), 1, kInt, c);
    for (int i = 0; i < n; ++i)
      EXPECT_EQ(in[static_cast<std::size_t>(i)], i * 1000 + c.rank());
  });
}

TEST_P(CollectiveSizes, AlltoallvRagged) {
  const int p = GetParam();
  mpl::run(p, [](Comm& c) {
    const int n = c.size();
    // Process r sends i+1 copies of r to process i.
    std::vector<int> scounts(static_cast<std::size_t>(n)), sdispls(static_cast<std::size_t>(n));
    std::vector<int> rcounts(static_cast<std::size_t>(n)), rdispls(static_cast<std::size_t>(n));
    int stotal = 0, rtotal = 0;
    for (int i = 0; i < n; ++i) {
      scounts[static_cast<std::size_t>(i)] = i + 1;
      sdispls[static_cast<std::size_t>(i)] = stotal;
      stotal += i + 1;
      rcounts[static_cast<std::size_t>(i)] = c.rank() + 1;
      rdispls[static_cast<std::size_t>(i)] = rtotal;
      rtotal += c.rank() + 1;
    }
    std::vector<int> sbuf(static_cast<std::size_t>(stotal), c.rank());
    std::vector<int> rbuf(static_cast<std::size_t>(rtotal), -1);
    mpl::alltoallv(sbuf.data(), scounts, sdispls, kInt, rbuf.data(), rcounts,
                   rdispls, kInt, c);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j <= c.rank(); ++j) {
        EXPECT_EQ(rbuf[static_cast<std::size_t>(rdispls[static_cast<std::size_t>(i)] + j)], i);
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16));

TEST(Collectives, BcastLargeNonPowerOfTwo) {
  mpl::run(6, [](Comm& c) {
    std::vector<double> buf(1000);
    if (c.rank() == 2) {
      std::iota(buf.begin(), buf.end(), 0.5);
    }
    mpl::bcast(buf.data(), 1000, Datatype::of<double>(), 2, c);
    EXPECT_DOUBLE_EQ(buf[999], 999.5);
  });
}

TEST(Collectives, AllgatherWithDerivedRecvType) {
  // Each process contributes one int; receive as a strided row so the
  // result interleaves with padding.
  mpl::run(4, [](Comm& c) {
    const int v = c.rank() + 1;
    std::vector<int> padded(8, 0);
    Datatype strided = Datatype::resized(kInt, 0, 2 * sizeof(int));
    mpl::allgather(&v, 1, kInt, padded.data(), 1, strided, c);
    EXPECT_EQ(padded, (std::vector<int>{1, 0, 2, 0, 3, 0, 4, 0}));
  });
}
