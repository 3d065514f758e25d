// The benchmark's four workloads, written as an application would write
// them against the public mpl and cartcomm headers.
//
//   halo_step      Listing 3: persistent alltoallw over the Moore shell,
//                  9-point Jacobi sweep, world allreduce of the residual.
//   call_repeat    blocking one-shot alltoall / allgather / neighbour
//                  allreduce on the same buffers every call.
//   call_rotate    the same calls, each on the next buffer set of a ring
//                  larger than the plan-cache capacity.
//   bulk_exchange  persistent alltoall of 1 MiB blocks (von Neumann).
//
// Every block a rank sends carries (source rank, neighbour index, op
// index), so a result delivered from the wrong source, to the wrong slot
// or from a stale buffer fails the oracle.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"
#include "cartcomm/cartcomm.hpp"
#include "mpl/mpl.hpp"
#include "mpl/reduce.hpp"

namespace cartbench {

namespace {

using cartcomm::Algorithm;
using cartcomm::RecvBlock;
using cartcomm::SendBlock;

/// Block stamp: unique per (seed, source rank, neighbour index, op).
std::uint64_t stamp(std::uint64_t seed, int src, int idx, long k) {
  return mix(seed) ^ ((static_cast<std::uint64_t>(k + 8) << 24) |
                      (static_cast<std::uint64_t>(src) << 8) |
                      static_cast<std::uint64_t>(idx));
}

/// Schedule counts of one bound cartcomm schedule.
Counts schedule_counts(const cartcomm::Schedule& s) {
  Counts c;
  c.rounds = s.rounds();
  for (const cartcomm::ScheduleRound& r : s.round_list()) {
    if (r.sendrank != mpl::PROC_NULL && r.sendtype.valid() &&
        r.sendtype.size() > 0) {
      c.msgs += 1;
    }
  }
  c.send_bytes = static_cast<double>(s.send_bytes());
  c.temp_bytes = static_cast<double>(s.temp_bytes());
  return c;
}

/// Counts of the trivial algorithm: one message per non-self neighbour.
Counts trivial_counts(const cartcomm::CartNeighborComm& cc,
                      std::span<const SendBlock> sends) {
  Counts c;
  c.rounds = cc.stats().trivial_rounds;
  const cartcomm::Neighborhood& nb = cc.neighborhood();
  for (int i = 0; i < nb.count(); ++i) {
    if (nb.nonzeros(i) == 0 ||
        cc.target_ranks()[static_cast<std::size_t>(i)] == mpl::PROC_NULL) {
      continue;
    }
    c.msgs += 1;
    c.send_bytes += static_cast<double>(sends[static_cast<std::size_t>(i)].bytes());
  }
  return c;
}

/// One failure per structural mismatch: a combining schedule must run in
/// exactly C = sum C_k rounds (Proposition 3.2).
long check_rounds(const cartcomm::Schedule& s,
                  const cartcomm::CartNeighborComm& cc) {
  return s.rounds() == cc.stats().combining_rounds ? 0 : 1;
}

/// Median per-call time of a collective probe; every rank runs the same
/// number of calls.
template <typename F>
double collective_probe_us(F&& f) {
  for (int i = 0; i < 20; ++i) f();
  return median_call_us(400, f);
}

/// Datatype::pack throughput over the given send blocks (computed bytes).
double pack_gb_s(std::span<const SendBlock> blocks) {
  std::size_t bytes = 0;
  for (const SendBlock& b : blocks) bytes += b.bytes();
  std::vector<std::byte> out(bytes);
  auto pack_all = [&] {
    std::byte* p = out.data();
    for (const SendBlock& b : blocks) {
      b.type.pack(b.addr, b.count, p);
      p += b.bytes();
    }
  };
  pack_all();
  const int reps = static_cast<int>(
      std::clamp<std::size_t>((std::size_t{64} << 20) / std::max<std::size_t>(bytes, 1), 8, 20000));
  const double us = median_call_us(reps, pack_all);
  return static_cast<double>(bytes) / (us * 1e3);
}

std::vector<int> all_periodic(const Params& p) {
  return std::vector<int>(p.dims.size(), 1);
}

/// One execution of a persistent collective. Traced ops are split into
/// PersistentColl::start and CartRequest::wait on alternate ops; the
/// others (and every untraced op) run the undivided execute().
void run_persistent(const cartcomm::PersistentColl& ex, bool split,
                    SpanLog* log, long k, int root) {
  if (!log) {
    ex.execute();
  } else if (split) {
    int s = log->open(Name::start, k, root);
    cartcomm::CartRequest r = ex.start();
    log->close(s);
    s = log->open(Name::wait, k, root);
    r.wait();
    log->close(s);
  } else {
    Scope s(log, Name::undivided, k, root);
    ex.execute();
  }
}

/// Layer probes shared by the persistent workloads, which make no per-op
/// plan lookup, bind or neighbour reduction of their own: the same public
/// calls on the workload's communicator and blocks.
void persistent_probes(const cartcomm::CartNeighborComm& cart,
                       std::span<const SendBlock> sends,
                       std::span<const RecvBlock> recvs, int rank,
                       Probes& out) {
  std::vector<std::size_t> bytes;
  for (const SendBlock& b : sends) bytes.push_back(b.bytes());
  out.compile_ms = median_call_us(9, [&] {
                     (void)cartcomm::compile_alltoall_plan(cart, bytes);
                   }) / 1e3;
  out.lookup_us = median_call_us(2000, [&] {
    (void)cartcomm::plan_cache_lookup(
        cartcomm::make_alltoall_key(cart, sends, recvs));
  });
  const cartcomm::CompiledPlan plan = cartcomm::compile_alltoall_plan(cart, bytes);
  out.bind_us = median_call_us(200, [&] { (void)plan.bind(cart, sends, recvs); });
  const mpl::ReduceOp sum = mpl::ReduceOp::sum<int>();
  std::array<int, 2> in{rank, 1}, res{};
  out.reduce_us = collective_probe_us([&] {
    (void)cartcomm::cart_neighbor_allreduce(in.data(), res.data(), 2,
                                            mpl::Datatype::of<int>(), sum, cart);
  });
  out.pack_gb_s = pack_gb_s(sends);
}

// -- halo_step ----------------------------------------------------------------

/// Listing 3, laid out as examples/heat2d.cpp lays it out: an (N+2)^2
/// field with a depth-1 ghost frame, ROW/COL/COR datatypes per neighbour
/// and one persistent alltoallw reused every step. The grid is periodic,
/// so the same code on a 1x1 grid (every neighbour is the rank itself)
/// computes the serial reference bit for bit.
class Halo final : public Workload {
 public:
  Halo(const Params& p, Shared& sh, int rank)
      : p_(p), sh_(sh), rank_(rank), n_(p.halo_n) {}

  void setup(const mpl::Comm& world, SpanLog* log, long& fails) override {
    world_ = world;
    {
      Scope s(log, Name::create, -1, -1);
      cart_ = cartcomm::cart_neighborhood_create(world, p_.dims,
                                                 all_periodic(p_), kShell);
    }
    const std::size_t cells = static_cast<std::size_t>((n_ + 2) * (n_ + 2));
    m_.assign(cells, 0.0);
    next_.assign(cells, 0.0);
    sh_.shadow[static_cast<std::size_t>(rank_)].assign(cells, 0.0);
    const std::span<const int> c = cart_.coords();
    const long gcols = static_cast<long>(p_.dims[1]) * n_;
    for (int i = 1; i <= n_; ++i) {
      for (int j = 1; j <= n_; ++j) {
        const long gr = static_cast<long>(c[0]) * n_ + i - 1;
        const long gc = static_cast<long>(c[1]) * n_ + j - 1;
        const std::uint64_t h =
            mix(p_.seed ^ mix(static_cast<std::uint64_t>(gr * gcols + gc)));
        m_[at(i, j)] = static_cast<double>(h >> 11) * 0x1.0p-53;
      }
    }

    const mpl::Datatype dbl = mpl::Datatype::of<double>();
    const mpl::Datatype row = mpl::Datatype::contiguous(n_, dbl);
    const mpl::Datatype col = mpl::Datatype::vector(n_, 1, n_ + 2, dbl);
    std::vector<int> counts(8, 1);
    std::vector<std::ptrdiff_t> sdisp(8), rdisp(8);
    std::vector<mpl::Datatype> types(8);
    for (std::size_t i = 0; i < 8; ++i) {
      const Block b = block(static_cast<int>(i));
      types[i] = b.rows == 1 && b.cols == 1 ? dbl : b.rows == 1 ? row : col;
      sdisp[i] = static_cast<std::ptrdiff_t>(at(b.sr, b.sc) * sizeof(double));
      rdisp[i] = static_cast<std::ptrdiff_t>(at(b.rr, b.rc) * sizeof(double));
      sends_.push_back({reinterpret_cast<const char*>(m_.data()) + sdisp[i], 1, types[i]});
      recvs_.push_back({reinterpret_cast<char*>(m_.data()) + rdisp[i], 1, types[i]});
    }
    ex_ = cartcomm::alltoallw_init(m_.data(), counts, sdisp, types, m_.data(),
                                   counts, rdisp, types, cart_,
                                   Algorithm::automatic);
    if (ex_.algorithm() == Algorithm::combining) {
      fails += check_rounds(ex_.schedule(), cart_);
    }
    stage(-1, nullptr);
    op(-1, nullptr, fails);
  }

  void stage(long k, SpanLog* log) override {
    // Oracle support, not application work: remember the field the
    // neighbours are about to read.
    Scope s(log, Name::oracle, k, -1);
    std::vector<double>& shadow = sh_.shadow[static_cast<std::size_t>(rank_)];
    std::copy(m_.begin(), m_.end(), shadow.begin());
  }

  OpTime op(long k, SpanLog* log, long& fails) override {
    const double t0 = now_us();
    const int root = log ? log->open(Name::op, k) : -1;
    run_persistent(ex_, split_op(*this, k), log, k, root);
    const double t1 = now_us();
    bool ok = true;
    {
      Scope s(log, Name::oracle, k, root);
      if (k == p_.corrupt_op && rank_ == 0) m_[at(0, 1)] += 1.0;
      ok = ghosts_match();
    }
    const double t2 = now_us();
    double local = 0.0;
    {
      Scope s(log, Name::compute, k, root);
      local = sweep();
    }
    const std::size_t slot =
        static_cast<std::size_t>(k & 1) * static_cast<std::size_t>(p_.nprocs);
    sh_.resid[slot + static_cast<std::size_t>(rank_)] = local;
    double residual = 0.0;
    {
      Scope s(log, Name::allreduce, k, root);
      residual = mpl::allreduce(local, mpl::op::max{}, world_);
    }
    const double t3 = now_us();
    if (log) log->close(root);
    // Every rank wrote its slot before contributing to the allreduce, and
    // none can overwrite it before this rank's next exchange has sent.
    const auto first = sh_.resid.begin() + static_cast<std::ptrdiff_t>(slot);
    ok = ok && residual == *std::max_element(first, first + p_.nprocs);
    if (!ok) ++fails;
    return {t0, (t1 - t0) + (t3 - t2)};
  }

  [[nodiscard]] double payload_bytes(long) const override {
    return static_cast<double>((4 * n_ + 4) * sizeof(double));
  }

  [[nodiscard]] Counts counts() const override {
    return ex_.algorithm() == Algorithm::combining
               ? schedule_counts(ex_.schedule())
               : trivial_counts(cart_, sends_);
  }

  [[nodiscard]] int plan_keys() const override {
    return ex_.algorithm() == Algorithm::combining ? 1 : 0;
  }

  void probe(Probes& out) override {
    persistent_probes(cart_, sends_, recvs_, rank_, out);
  }

  void snapshot() override {
    const std::span<const int> c = cart_.coords();
    const std::size_t gcols = static_cast<std::size_t>(p_.dims[1] * n_);
    for (int i = 1; i <= n_; ++i) {
      const std::size_t gr = static_cast<std::size_t>(c[0] * n_ + i - 1);
      const std::size_t gc = static_cast<std::size_t>(c[1] * n_);
      std::copy_n(m_.begin() + static_cast<std::ptrdiff_t>(at(i, 1)), n_,
                  sh_.field.begin() + static_cast<std::ptrdiff_t>(gr * gcols + gc));
    }
  }

 private:
  // 8 targets: the four sides, then the four corners (examples/heat2d.cpp).
  inline static const cartcomm::Neighborhood kShell{
      2, {0, 1, 0, -1, -1, 0, 1, 0, -1, 1, 1, 1, 1, -1, -1, -1}};

  /// Send and receive rectangle of neighbour i (top-left cell, extent).
  struct Block {
    int sr, sc, rr, rc, rows, cols;
  };
  [[nodiscard]] Block block(int i) const {
    const int n = n_;
    switch (i) {
      case 0: return {1, n, 1, 0, n, 1};          // right column -> left halo
      case 1: return {1, 1, 1, n + 1, n, 1};      // left column -> right halo
      case 2: return {1, 1, n + 1, 1, 1, n};      // top row -> bottom halo
      case 3: return {n, 1, 0, 1, 1, n};          // bottom row -> top halo
      case 4: return {1, n, n + 1, 0, 1, 1};      // corners
      case 5: return {n, n, 0, 0, 1, 1};
      case 6: return {n, 1, 0, n + 1, 1, 1};
      default: return {1, 1, n + 1, n + 1, 1, 1};
    }
  }

  [[nodiscard]] std::size_t at(int i, int j) const {
    return static_cast<std::size_t>(i * (n_ + 2) + j);
  }

  /// Every ghost cell equals the cell its source sent, bit for bit.
  [[nodiscard]] bool ghosts_match() const {
    for (int i = 0; i < 8; ++i) {
      const Block b = block(i);
      const std::vector<double>& src = sh_.shadow[static_cast<std::size_t>(
          cart_.source_ranks()[static_cast<std::size_t>(i)])];
      for (int r = 0; r < b.rows; ++r) {
        for (int c = 0; c < b.cols; ++c) {
          if (std::memcmp(&m_[at(b.rr + r, b.rc + c)],
                          &src[at(b.sr + r, b.sc + c)], sizeof(double)) != 0) {
            return false;
          }
        }
      }
    }
    return true;
  }

  /// 9-point Jacobi sweep; returns the local max update.
  double sweep() {
    double local = 0.0;
    for (int i = 1; i <= n_; ++i) {
      for (int j = 1; j <= n_; ++j) {
        const double v =
            0.05 * (4.0 * (m_[at(i - 1, j)] + m_[at(i + 1, j)] +
                           m_[at(i, j - 1)] + m_[at(i, j + 1)]) +
                    (m_[at(i - 1, j - 1)] + m_[at(i - 1, j + 1)] +
                     m_[at(i + 1, j - 1)] + m_[at(i + 1, j + 1)]));
        local = std::max(local, std::abs(v - m_[at(i, j)]));
        next_[at(i, j)] = v;
      }
    }
    for (int i = 1; i <= n_; ++i) {
      std::copy_n(next_.begin() + static_cast<std::ptrdiff_t>(at(i, 1)), n_,
                  m_.begin() + static_cast<std::ptrdiff_t>(at(i, 1)));
    }
    return local;
  }

  const Params& p_;
  Shared& sh_;
  int rank_;
  int n_;
  mpl::Comm world_;
  cartcomm::CartNeighborComm cart_;
  std::vector<double> m_, next_;
  std::vector<SendBlock> sends_;
  std::vector<RecvBlock> recvs_;
  cartcomm::PersistentColl ex_;
};

// -- call_repeat / call_rotate ------------------------------------------------

/// Blocking one-shot calls in turn: alltoall, allgather, neighbour
/// allreduce (int sum), over Neighborhood::stencil(2, 9, -1) with 8-byte
/// blocks. call_repeat keeps one buffer set; call_rotate moves to the next
/// set of a ring larger than plan_cache_cap() on every call.
class Calls final : public Workload {
 public:
  Calls(const Params& p, int rank, bool rotate)
      : p_(p), rank_(rank), rotate_(rotate) {}

  void setup(const mpl::Comm& world, SpanLog* log, long& fails) override {
    {
      Scope s(log, Name::create, -1, -1);
      cart_ = cartcomm::cart_neighborhood_create(
          world, p_.dims, all_periodic(p_),
          cartcomm::Neighborhood::stencil(2, 9, -1));
    }
    t_ = cart_.neighbor_count();
    sources_.assign(cart_.source_ranks().begin(), cart_.source_ranks().end());
    const std::size_t cap = cartcomm::plan_cache_cap();
    sets_.resize(rotate_ ? std::max<std::size_t>(cap + cap / 4, 2) : 1);
    const std::size_t t = static_cast<std::size_t>(t_);
    for (Set& s : sets_) {
      s.a2a_send.assign(t, 0);
      s.a2a_recv.assign(t, 0);
      s.ag_send.assign(1, 0);
      s.ag_recv.assign(t, 0);
      s.red_send.assign(2, 0);
      s.red_recv.assign(2, 0);
      for (std::size_t i = 0; i < t; ++i) {
        s.a2a_sends.push_back({&s.a2a_send[i], 1, u64_});
        s.a2a_recvs.push_back({&s.a2a_recv[i], 1, u64_});
        s.ag_recvs.push_back({&s.ag_recv[i], 1, u64_});
      }
      s.ag_sendb = {s.ag_send.data(), 1, u64_};
      s.red_sendb = {s.red_send.data(), 2, i32_};
      s.red_recvb = {s.red_recv.data(), 2, i32_};
    }
    // The split path replays what the one-shot calls do; it is only
    // defined for the combining algorithm they resolve to here.
    const bool combining =
        cart_.resolve_alltoall(Algorithm::automatic, sizeof(std::uint64_t)) ==
            Algorithm::combining &&
        cart_.resolve_allgather(Algorithm::automatic) == Algorithm::combining &&
        cart_.neighborhood().contains_zero_vector() &&
        cart_.neighborhood().combining_rounds() <
            cart_.neighborhood().trivial_rounds();
    if (!combining) {
      throw std::runtime_error("call workloads expect combining schedules");
    }
    for (long k = -3; k < 0; ++k) {
      stage(k, nullptr);
      op(k, nullptr, fails);
    }
    const Set& s0 = sets_.front();
    const std::shared_ptr<cartcomm::BoundSchedule> bound[3] = {
        cartcomm::build_alltoall_schedule_shared(cart_, s0.a2a_sends, s0.a2a_recvs),
        cartcomm::build_allgather_schedule_shared(cart_, s0.ag_sendb, s0.ag_recvs,
                                                  cart_.allgather_order()),
        reduce_bound(s0)};
    for (const std::shared_ptr<cartcomm::BoundSchedule>& b : bound) {
      fails += check_rounds(b->sched, cart_);
      const Counts c = schedule_counts(b->sched);
      counts_.rounds += c.rounds / 3;
      counts_.msgs += c.msgs / 3;
      counts_.send_bytes += c.send_bytes / 3;
      counts_.temp_bytes += c.temp_bytes / 3;
    }
  }

  void stage(long k, SpanLog* log) override {
    Scope sc(log, Name::stage, k, -1);
    Set& s = set(k);
    switch (kind(k)) {
      case 0:
        for (int i = 0; i < t_; ++i) {
          s.a2a_send[static_cast<std::size_t>(i)] = stamp(p_.seed, rank_, i, k);
        }
        break;
      case 1:
        s.ag_send[0] = stamp(p_.seed, rank_, 255, k);
        break;
      default:
        s.red_send[0] = contribution(rank_, k, 0);
        s.red_send[1] = contribution(rank_, k, 1);
    }
  }

  OpTime op(long k, SpanLog* log, long& fails) override {
    Set& s = set(k);
    const int kd = kind(k);
    const double t0 = now_us();
    const int root = log ? log->open(Name::op, k) : -1;
    if (log && split_op(*this, k)) {
      std::shared_ptr<cartcomm::BoundSchedule> b;
      {
        Scope sc(log, Name::bind, k, root);
        b = kd == 0 ? cartcomm::build_alltoall_schedule_shared(cart_, s.a2a_sends, s.a2a_recvs)
            : kd == 1 ? cartcomm::build_allgather_schedule_shared(
                            cart_, s.ag_sendb, s.ag_recvs, cart_.allgather_order())
                      : reduce_bound(s);
      }
      int i = log->open(Name::start, k, root);
      cartcomm::Schedule::Execution e = b->sched.start(cart_.comm(), b->scratch);
      log->close(i);
      i = log->open(Name::wait, k, root);
      e.wait();
      log->close(i);
    } else {
      Scope sc(log, Name::undivided, k, root);
      if (kd == 0) {
        cartcomm::alltoall(s.a2a_send.data(), 1, u64_, s.a2a_recv.data(), 1,
                           u64_, cart_, Algorithm::automatic);
      } else if (kd == 1) {
        cartcomm::allgather(s.ag_send.data(), 1, u64_, s.ag_recv.data(), 1,
                            u64_, cart_, Algorithm::automatic);
      } else {
        (void)cartcomm::cart_neighbor_allreduce(s.red_send.data(),
                                                s.red_recv.data(), 2, i32_,
                                                sum_, cart_);
      }
    }
    const double t1 = now_us();
    if (log) log->close(root);
    Scope sc(log, Name::oracle, k, -1);
    if (k == p_.corrupt_op && rank_ == 0) {
      s.a2a_recv[0] ^= 1;
      s.ag_recv[0] ^= 1;
      s.red_recv[0] ^= 1;
    }
    if (!result_ok(s, kd, k)) ++fails;
    return {t0, t1 - t0};
  }

  [[nodiscard]] double payload_bytes(long k) const override {
    return kind(k) == 2 ? 2.0 * sizeof(std::int32_t)
                        : static_cast<double>(t_) * sizeof(std::uint64_t);
  }
  [[nodiscard]] Counts counts() const override { return counts_; }
  [[nodiscard]] int plan_keys() const override { return 3; }
  [[nodiscard]] int kinds() const override { return 3; }
  [[nodiscard]] int warmup_ops() const override { return 3; }
  [[nodiscard]] int kind(long k) const override {
    return static_cast<int>(((k % 3) + 3) % 3);
  }

  void probe(Probes& out) override {
    const Set& s = sets_.front();
    const std::vector<std::size_t> bytes(static_cast<std::size_t>(t_),
                                         sizeof(std::uint64_t));
    const cartcomm::DimOrder order = cart_.allgather_order();
    out.compile_ms =
        (median_call_us(9, [&] { (void)cartcomm::compile_alltoall_plan(cart_, bytes); }) +
         median_call_us(9, [&] {
           (void)cartcomm::compile_allgather_plan(cart_, sizeof(std::uint64_t), order);
         }) +
         median_call_us(9, [&] {
           (void)cartcomm::compile_reduce_plan(cart_, cartcomm::ReduceVariant::reduce,
                                               true, order, s.red_sendb.bytes(), 2);
         })) / 1e3;
    out.lookup_us =
        (median_call_us(2000, [&] {
           (void)cartcomm::plan_cache_lookup(
               cartcomm::make_alltoall_key(cart_, s.a2a_sends, s.a2a_recvs));
         }) +
         median_call_us(2000, [&] {
           (void)cartcomm::plan_cache_lookup(
               cartcomm::make_allgather_key(cart_, s.ag_sendb, s.ag_recvs, order));
         }) +
         median_call_us(2000, [&] {
           (void)cartcomm::plan_cache_lookup(cartcomm::make_reduce_key(
               cart_, cartcomm::ReduceVariant::reduce, true, order, s.red_sendb, sum_));
         })) / 3;
    const mpl::Comm& world = cart_.comm();
    double x = rank_;
    out.allreduce_us = collective_probe_us(
        [&] { x = mpl::allreduce(x, mpl::op::max{}, world); });
    out.pack_gb_s = pack_gb_s(s.a2a_sends);
  }

 private:
  struct Set {
    std::vector<std::uint64_t> a2a_send, a2a_recv, ag_send, ag_recv;
    std::vector<std::int32_t> red_send, red_recv;
    std::vector<SendBlock> a2a_sends;
    std::vector<RecvBlock> a2a_recvs, ag_recvs;
    SendBlock ag_sendb, red_sendb;
    RecvBlock red_recvb;
  };

  [[nodiscard]] Set& set(long k) {
    const long r = static_cast<long>(sets_.size());
    return sets_[static_cast<std::size_t>(((k % r) + r) % r)];
  }

  /// The bound schedule cart_neighbor_allreduce uses: the stencil holds
  /// the zero vector, so the allreduce is a reduce over the neighbourhood.
  std::shared_ptr<cartcomm::BoundSchedule> reduce_bound(const Set& s) const {
    return cartcomm::build_reduce_schedule_shared(
        cart_, {&s.red_sendb, 1}, s.red_recvb, sum_,
        cartcomm::ReduceVariant::reduce, true,
        cartcomm::DimOrder::increasing_ck);
  }

  [[nodiscard]] std::int32_t contribution(int rank, long k, int j) const {
    return static_cast<std::int32_t>(
        mix(p_.seed ^ mix(static_cast<std::uint64_t>(k + 8) * 8 +
                          static_cast<std::uint64_t>(rank * 2 + j))) &
        0xffff);
  }

  [[nodiscard]] bool result_ok(const Set& s, int kd, long k) const {
    if (kd == 2) {
      for (int j = 0; j < 2; ++j) {
        std::int64_t want = 0;
        for (const int src : sources_) want += contribution(src, k, j);
        if (s.red_recv[static_cast<std::size_t>(j)] != want) return false;
      }
      return true;
    }
    const std::vector<std::uint64_t>& got = kd == 0 ? s.a2a_recv : s.ag_recv;
    for (int i = 0; i < t_; ++i) {
      const std::size_t ui = static_cast<std::size_t>(i);
      if (got[ui] != stamp(p_.seed, sources_[ui], kd == 0 ? i : 255, k)) {
        return false;
      }
    }
    return true;
  }

  const Params& p_;
  int rank_;
  bool rotate_;
  int t_ = 0;
  cartcomm::CartNeighborComm cart_;
  std::vector<int> sources_;
  std::vector<Set> sets_;
  Counts counts_;
  const mpl::Datatype u64_ = mpl::Datatype::of<std::uint64_t>();
  const mpl::Datatype i32_ = mpl::Datatype::of<std::int32_t>();
  const mpl::ReduceOp sum_ = mpl::ReduceOp::sum<std::int32_t>();
};

// -- bulk_exchange ------------------------------------------------------------

/// Persistent alltoall of 1 MiB blocks over the 2-D von Neumann
/// neighbourhood. Each block carries a seeded body and a stamp in its
/// first and last word. Every op checks the stamps and one 1/64 window of
/// each body, so the whole body is checked every 64 ops at an equal cost
/// per op (an occasional full check would delay the checking rank's next
/// op and show up as a tail on the other ranks).
class Bulk final : public Workload {
 public:
  static constexpr std::size_t kWords = std::size_t{1} << 17;  // 1 MiB
  static constexpr std::size_t kWindows = 64;

  Bulk(const Params& p, int rank) : p_(p), rank_(rank) {}

  void setup(const mpl::Comm& world, SpanLog* log, long& fails) override {
    {
      Scope s(log, Name::create, -1, -1);
      cart_ = cartcomm::cart_neighborhood_create(
          world, p_.dims, all_periodic(p_),
          cartcomm::Neighborhood::von_neumann(2));
    }
    t_ = cart_.neighbor_count();
    sources_.assign(cart_.source_ranks().begin(), cart_.source_ranks().end());
    const std::size_t t = static_cast<std::size_t>(t_);
    send_.resize(t * kWords);
    recv_.assign(t * kWords, 0);
    for (std::size_t i = 0; i < t; ++i) {
      for (std::size_t w = 0; w < kWords; ++w) {
        send_[i * kWords + w] = body(rank_, static_cast<int>(i), w);
      }
      sends_.push_back({&send_[i * kWords], static_cast<int>(kWords), u64_});
      recvs_.push_back({&recv_[i * kWords], static_cast<int>(kWords), u64_});
    }
    ex_ = cartcomm::alltoall_init(send_.data(), static_cast<int>(kWords), u64_,
                                  recv_.data(), static_cast<int>(kWords), u64_,
                                  cart_, Algorithm::automatic);
    if (ex_.algorithm() == Algorithm::combining) {
      fails += check_rounds(ex_.schedule(), cart_);
    }
    stage(-1, nullptr);
    op(-1, nullptr, fails);
  }

  void stage(long k, SpanLog* log) override {
    Scope s(log, Name::stage, k, -1);
    for (int i = 0; i < t_; ++i) {
      const std::uint64_t st = stamp(p_.seed, rank_, i, k);
      const std::size_t b = static_cast<std::size_t>(i) * kWords;
      send_[b] = st;
      send_[b + kWords - 1] = st;
    }
  }

  OpTime op(long k, SpanLog* log, long& fails) override {
    const double t0 = now_us();
    const int root = log ? log->open(Name::op, k) : -1;
    run_persistent(ex_, split_op(*this, k), log, k, root);
    const double t1 = now_us();
    if (log) log->close(root);
    Scope s(log, Name::oracle, k, -1);
    if (k == p_.corrupt_op && rank_ == 0) recv_[0] ^= 1;
    if (!result_ok(k)) ++fails;
    return {t0, t1 - t0};
  }

  [[nodiscard]] double payload_bytes(long) const override {
    return static_cast<double>(static_cast<std::size_t>(t_) * kWords *
                               sizeof(std::uint64_t));
  }

  [[nodiscard]] Counts counts() const override {
    return ex_.algorithm() == Algorithm::combining
               ? schedule_counts(ex_.schedule())
               : trivial_counts(cart_, sends_);
  }

  [[nodiscard]] int plan_keys() const override {
    return ex_.algorithm() == Algorithm::combining ? 1 : 0;
  }

  void probe(Probes& out) override {
    persistent_probes(cart_, sends_, recvs_, rank_, out);
    const mpl::Comm& world = cart_.comm();
    double x = rank_;
    out.allreduce_us = collective_probe_us(
        [&] { x = mpl::allreduce(x, mpl::op::max{}, world); });
  }

 private:
  [[nodiscard]] std::uint64_t body(int src, int i, std::size_t w) const {
    return mix(p_.seed ^ mix((static_cast<std::uint64_t>(src) << 40) ^
                             (static_cast<std::uint64_t>(i) << 32) ^ w));
  }

  [[nodiscard]] bool result_ok(long k) const {
    constexpr std::size_t span = kWords / kWindows;
    const std::size_t w0 =
        static_cast<std::size_t>(((k % static_cast<long>(kWindows)) + static_cast<long>(kWindows)) % static_cast<long>(kWindows)) * span;
    for (int i = 0; i < t_; ++i) {
      const int src = sources_[static_cast<std::size_t>(i)];
      const std::uint64_t st = stamp(p_.seed, src, i, k);
      const std::size_t b = static_cast<std::size_t>(i) * kWords;
      if (recv_[b] != st || recv_[b + kWords - 1] != st) return false;
      for (std::size_t w = std::max<std::size_t>(w0, 1);
           w < std::min(w0 + span, kWords - 1); ++w) {
        if (recv_[b + w] != body(src, i, w)) return false;
      }
    }
    return true;
  }

  const Params& p_;
  int rank_;
  int t_ = 0;
  cartcomm::CartNeighborComm cart_;
  std::vector<int> sources_;
  std::vector<std::uint64_t> send_, recv_;
  std::vector<SendBlock> sends_;
  std::vector<RecvBlock> recvs_;
  cartcomm::PersistentColl ex_;
  const mpl::Datatype u64_ = mpl::Datatype::of<std::uint64_t>();
};

}  // namespace

bool known_workload(const std::string& name) {
  return name == "halo_step" || name == "call_repeat" ||
         name == "call_rotate" || name == "bulk_exchange";
}

std::unique_ptr<Workload> make_workload(const Params& p, Shared& sh, int rank) {
  if (p.workload == "halo_step") return std::make_unique<Halo>(p, sh, rank);
  if (p.workload == "call_repeat") return std::make_unique<Calls>(p, rank, false);
  if (p.workload == "call_rotate") return std::make_unique<Calls>(p, rank, true);
  if (p.workload == "bulk_exchange") return std::make_unique<Bulk>(p, rank);
  throw std::invalid_argument("unknown workload: " + p.workload);
}

}  // namespace cartbench
