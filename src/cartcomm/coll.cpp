#include "cartcomm/coll.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "cartcomm/build_schedule.hpp"
#include "mpl/error.hpp"

namespace cartcomm {

namespace {

const char* at_bytes(const void* base, std::ptrdiff_t disp) {
  return static_cast<const char*>(base) + disp;
}
char* at_bytes(void* base, std::ptrdiff_t disp) {
  return static_cast<char*>(base) + disp;
}

std::size_t max_block_bytes(std::span<const SendBlock> sends) {
  std::size_t m = 0;
  for (const SendBlock& s : sends) m = std::max(m, s.bytes());
  return m;
}

/// Resolve `automatic` for a movement collective.
bool use_combining(const CartNeighborComm& cc, std::span<const SendBlock> sends,
                   bool allgather, Algorithm alg) {
  const Algorithm resolved =
      allgather ? cc.resolve_allgather(alg)
                : cc.resolve_alltoall(alg, max_block_bytes(sends));
  return resolved == Algorithm::combining;
}

/// One plan lookup and one bind. `sends` holds one block per neighbor
/// (alltoall) or the single shared send block (allgather).
Schedule build_movement(const CartNeighborComm& cc,
                        std::span<const SendBlock> sends,
                        std::span<const RecvBlock> recvs, bool allgather,
                        bool combining) {
  return allgather ? build_allgather_schedule(cc, sends.front(), recvs,
                                              cc.allgather_order(), combining)
                   : build_alltoall_schedule(cc, sends, recvs, combining);
}

}  // namespace

/// Internal factory assembling PersistentColl objects for all variants.
/// `sends` as for build_movement.
class CollBuilder {
 public:
  static PersistentColl make(const CartNeighborComm& cc,
                             std::span<const SendBlock> sends,
                             std::span<const RecvBlock> recvs, bool allgather,
                             Algorithm alg) {
    const bool combining = use_combining(cc, sends, allgather, alg);
    PersistentColl p;
    p.st_ = std::make_shared<detail::PersistentState>();
    detail::PersistentState& st = *p.st_;
    st.comm = cc.comm();
    st.alg = combining ? Algorithm::combining : Algorithm::trivial;
    st.sched = build_movement(cc, sends, recvs, allgather, combining);
    return p;
  }
};

void PersistentColl::execute() const {
  MPL_REQUIRE(st_ != nullptr,
              "execute on default-constructed (or moved-from) PersistentColl");
  detail::PersistentState& st = *st_;
  MPL_REQUIRE(!st.in_flight,
              "PersistentColl::execute: an execution is already in flight");
  // Route through the scratch so repeated blocking executions run with
  // zero setup and zero allocation, like the start()/wait() path.
  st.in_flight = true;
  Schedule::Execution e = st.sched.start(st.comm, st.scratch);
  e.wait();
  st.in_flight = false;
}

CartRequest PersistentColl::start() const {
  MPL_REQUIRE(st_ != nullptr,
              "start on default-constructed (or moved-from) PersistentColl");
  detail::PersistentState& st = *st_;
  MPL_REQUIRE(!st.in_flight,
              "PersistentColl::start: an execution is already in flight");
  st.in_flight = true;
  CartRequest r;
  r.st_ = st_;  // co-ownership: the request outlives this handle if need be
  r.exec_ = st.sched.start(st.comm, st.scratch);
  r.done_ = r.exec_.done();
  if (r.done_) st.in_flight = false;
  return r;
}

bool CartRequest::test() {
  if (done_) return true;
  MPL_REQUIRE(st_ != nullptr, "CartRequest::test on an empty request");
  done_ = exec_.test();
  if (done_) st_->in_flight = false;
  return done_;
}

void CartRequest::wait() {
  if (done_) return;
  MPL_REQUIRE(st_ != nullptr, "CartRequest::wait on an empty request");
  exec_.wait();
  done_ = true;
  st_->in_flight = false;
}

const Schedule& PersistentColl::schedule() const {
  MPL_REQUIRE(st_ != nullptr,
              "schedule() on default-constructed (or moved-from) "
              "PersistentColl");
  return st_->sched;
}

// -- descriptor assembly ------------------------------------------------------

namespace {

/// Per-neighbor descriptor lists, one per direction.
struct Blocks {
  std::vector<SendBlock> sends;
  std::vector<RecvBlock> recvs;
};

/// The blocking one-shot calls of a rank run one at a time, so they fill
/// one per-rank pair of lists in place. A block reassigned the datatype it
/// already holds keeps its reference count, so a steady-state call neither
/// allocates descriptors nor makes 2t atomic count updates. Like the
/// executor's scratch, a working set keyed on nothing.
Blocks& oneshot_blocks() {
  thread_local Blocks b;
  return b;
}

/// Set one block field by field (see oneshot_blocks).
template <class Block, class Ptr>
void set(Block& b, Ptr addr, int count, const mpl::Datatype& type) {
  b.addr = addr;
  b.count = count;
  b.type = type;
}

/// `t` blocks of `count` elements of `type`, back to back.
template <class Block, class Ptr>
std::vector<Block>& regular(std::vector<Block>& v, Ptr buf, int count,
                            const mpl::Datatype& type, int t) {
  v.resize(static_cast<std::size_t>(t));
  for (int i = 0; i < t; ++i) {
    set(v[static_cast<std::size_t>(i)],
        at_bytes(buf, static_cast<std::ptrdiff_t>(i) * count * type.extent()),
        count, type);
  }
  return v;
}

/// The v variants: element counts and element displacements, one type.
template <class Block, class Ptr>
std::vector<Block>& blocks_v(std::vector<Block>& v, Ptr buf,
                             std::span<const int> counts,
                             std::span<const int> displs,
                             const mpl::Datatype& type) {
  v.resize(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    set(v[i], at_bytes(buf, displs[i] * type.extent()), counts[i], type);
  }
  return v;
}

/// The w variants: element counts, byte displacements, a type per block.
template <class Block, class Ptr>
std::vector<Block>& blocks_w(std::vector<Block>& v, Ptr buf,
                             std::span<const int> counts,
                             std::span<const std::ptrdiff_t> displs,
                             std::span<const mpl::Datatype> types) {
  MPL_REQUIRE(counts.size() == displs.size() && counts.size() == types.size(),
              "w-variant: argument arity mismatch");
  v.resize(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    set(v[i], at_bytes(buf, displs[i]), counts[i], types[i]);
  }
  return v;
}

/// Blocking one-shot execution for the non-persistent entry points: one
/// plan lookup, one bind, and an execution out of the rank's reusable
/// scratch (Schedule::execute). `sends` as for build_movement.
void run_oneshot(const CartNeighborComm& cc, std::span<const SendBlock> sends,
                 std::span<const RecvBlock> recvs, bool allgather,
                 Algorithm alg) {
  build_movement(cc, sends, recvs, allgather,
                 use_combining(cc, sends, allgather, alg))
      .execute(cc.comm());
}

}  // namespace

// -- alltoall family ----------------------------------------------------------

PersistentColl alltoall_init(const void* sendbuf, int sendcount,
                             const mpl::Datatype& sendtype, void* recvbuf,
                             int recvcount, const mpl::Datatype& recvtype,
                             const CartNeighborComm& cc, Algorithm alg) {
  const int t = cc.neighbor_count();
  Blocks b;
  return CollBuilder::make(cc, regular(b.sends, sendbuf, sendcount, sendtype, t),
                           regular(b.recvs, recvbuf, recvcount, recvtype, t),
                           false, alg);
}

PersistentColl alltoallv_init(const void* sendbuf,
                              std::span<const int> sendcounts,
                              std::span<const int> sdispls,
                              const mpl::Datatype& sendtype, void* recvbuf,
                              std::span<const int> recvcounts,
                              std::span<const int> rdispls,
                              const mpl::Datatype& recvtype,
                              const CartNeighborComm& cc, Algorithm alg) {
  Blocks b;
  return CollBuilder::make(
      cc, blocks_v(b.sends, sendbuf, sendcounts, sdispls, sendtype),
      blocks_v(b.recvs, recvbuf, recvcounts, rdispls, recvtype), false, alg);
}

PersistentColl alltoallw_init(const void* sendbuf,
                              std::span<const int> sendcounts,
                              std::span<const std::ptrdiff_t> sdispls_bytes,
                              std::span<const mpl::Datatype> sendtypes,
                              void* recvbuf, std::span<const int> recvcounts,
                              std::span<const std::ptrdiff_t> rdispls_bytes,
                              std::span<const mpl::Datatype> recvtypes,
                              const CartNeighborComm& cc, Algorithm alg) {
  Blocks b;
  return CollBuilder::make(
      cc, blocks_w(b.sends, sendbuf, sendcounts, sdispls_bytes, sendtypes),
      blocks_w(b.recvs, recvbuf, recvcounts, rdispls_bytes, recvtypes), false,
      alg);
}

void alltoall(const void* sendbuf, int sendcount, const mpl::Datatype& sendtype,
              void* recvbuf, int recvcount, const mpl::Datatype& recvtype,
              const CartNeighborComm& cc, Algorithm alg) {
  const int t = cc.neighbor_count();
  Blocks& b = oneshot_blocks();
  run_oneshot(cc, regular(b.sends, sendbuf, sendcount, sendtype, t),
              regular(b.recvs, recvbuf, recvcount, recvtype, t), false, alg);
}

void alltoallv(const void* sendbuf, std::span<const int> sendcounts,
               std::span<const int> sdispls, const mpl::Datatype& sendtype,
               void* recvbuf, std::span<const int> recvcounts,
               std::span<const int> rdispls, const mpl::Datatype& recvtype,
               const CartNeighborComm& cc, Algorithm alg) {
  Blocks& b = oneshot_blocks();
  run_oneshot(cc, blocks_v(b.sends, sendbuf, sendcounts, sdispls, sendtype),
              blocks_v(b.recvs, recvbuf, recvcounts, rdispls, recvtype), false,
              alg);
}

void alltoallw(const void* sendbuf, std::span<const int> sendcounts,
               std::span<const std::ptrdiff_t> sdispls_bytes,
               std::span<const mpl::Datatype> sendtypes, void* recvbuf,
               std::span<const int> recvcounts,
               std::span<const std::ptrdiff_t> rdispls_bytes,
               std::span<const mpl::Datatype> recvtypes,
               const CartNeighborComm& cc, Algorithm alg) {
  Blocks& b = oneshot_blocks();
  run_oneshot(cc,
              blocks_w(b.sends, sendbuf, sendcounts, sdispls_bytes, sendtypes),
              blocks_w(b.recvs, recvbuf, recvcounts, rdispls_bytes, recvtypes),
              false, alg);
}

// -- allgather family ---------------------------------------------------------

PersistentColl allgather_init(const void* sendbuf, int sendcount,
                              const mpl::Datatype& sendtype, void* recvbuf,
                              int recvcount, const mpl::Datatype& recvtype,
                              const CartNeighborComm& cc, Algorithm alg) {
  const SendBlock send{sendbuf, sendcount, sendtype};
  std::vector<RecvBlock> recvs;
  return CollBuilder::make(
      cc, {&send, 1},
      regular(recvs, recvbuf, recvcount, recvtype, cc.neighbor_count()), true,
      alg);
}

PersistentColl allgatherv_init(const void* sendbuf, int sendcount,
                               const mpl::Datatype& sendtype, void* recvbuf,
                               std::span<const int> recvcounts,
                               std::span<const int> displs,
                               const mpl::Datatype& recvtype,
                               const CartNeighborComm& cc, Algorithm alg) {
  const SendBlock send{sendbuf, sendcount, sendtype};
  std::vector<RecvBlock> recvs;
  return CollBuilder::make(
      cc, {&send, 1}, blocks_v(recvs, recvbuf, recvcounts, displs, recvtype),
      true, alg);
}

PersistentColl allgatherw_init(const void* sendbuf, int sendcount,
                               const mpl::Datatype& sendtype, void* recvbuf,
                               std::span<const int> recvcounts,
                               std::span<const std::ptrdiff_t> rdispls_bytes,
                               std::span<const mpl::Datatype> recvtypes,
                               const CartNeighborComm& cc, Algorithm alg) {
  const SendBlock send{sendbuf, sendcount, sendtype};
  std::vector<RecvBlock> recvs;
  return CollBuilder::make(
      cc, {&send, 1},
      blocks_w(recvs, recvbuf, recvcounts, rdispls_bytes, recvtypes), true,
      alg);
}

void allgather(const void* sendbuf, int sendcount,
               const mpl::Datatype& sendtype, void* recvbuf, int recvcount,
               const mpl::Datatype& recvtype, const CartNeighborComm& cc,
               Algorithm alg) {
  const SendBlock send{sendbuf, sendcount, sendtype};
  run_oneshot(cc, {&send, 1},
              regular(oneshot_blocks().recvs, recvbuf, recvcount, recvtype,
                      cc.neighbor_count()),
              true, alg);
}

void allgatherv(const void* sendbuf, int sendcount,
                const mpl::Datatype& sendtype, void* recvbuf,
                std::span<const int> recvcounts, std::span<const int> displs,
                const mpl::Datatype& recvtype, const CartNeighborComm& cc,
                Algorithm alg) {
  const SendBlock send{sendbuf, sendcount, sendtype};
  run_oneshot(cc, {&send, 1},
              blocks_v(oneshot_blocks().recvs, recvbuf, recvcounts, displs,
                       recvtype),
              true, alg);
}

void allgatherw(const void* sendbuf, int sendcount,
                const mpl::Datatype& sendtype, void* recvbuf,
                std::span<const int> recvcounts,
                std::span<const std::ptrdiff_t> rdispls_bytes,
                std::span<const mpl::Datatype> recvtypes,
                const CartNeighborComm& cc, Algorithm alg) {
  const SendBlock send{sendbuf, sendcount, sendtype};
  run_oneshot(cc, {&send, 1},
              blocks_w(oneshot_blocks().recvs, recvbuf, recvcounts,
                       rdispls_bytes, recvtypes),
              true, alg);
}

}  // namespace cartcomm
