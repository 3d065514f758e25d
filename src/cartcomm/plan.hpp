// Compiled communication plans and the process-global plan cache.
//
// The paper's isomorphism result is that a schedule's structure depends
// only on the neighborhood signature — never on the calling rank's data,
// and on a torus not even on its position. Splitting the schedule *build*
// into a rank-independent compile step and a cheap per-call bind step
// makes that literal in the code:
//
//   compile  — runs Algorithm 1/2 (or the trivial Listing 4 plan) once and
//              records a placement program: a per-round list of abstract
//              block placements (send block i, receive block i, or a
//              temp-pool range), the generating offsets, phase
//              boundaries and the final local copies. A
//              CompiledPlan holds no addresses, datatypes or ranks — it is
//              immutable and shareable across communicators and threads.
//   bind     — replays the placement program against concrete buffers:
//              builds the absolute datatypes (in exactly the recorded
//              append order, so bound schedules are bit-identical to ones
//              built directly), lays out the temp pool, and resolves the
//              partner ranks from this process' grid position. A counting
//              pass sizes one allocation (mpl::TypeArena) for every round
//              and copy type, the temp pool and the round offsets, so a
//              bind makes the same few heap allocations whatever the
//              round and block count.
//
// Repeated non-persistent collective calls therefore skip the O(t·d)
// construction entirely: every call does one lookup in a concurrent
// sharded cache keyed by the canonical neighborhood signature (see
// PlanKey) and one bind. MPL_PLAN_CACHE=0 disables the cache,
// MPL_PLAN_CACHE_CAP bounds its size (approximate LRU eviction).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "cartcomm/analysis.hpp"
#include "cartcomm/blocks.hpp"
#include "cartcomm/cart_comm.hpp"
#include "cartcomm/schedule.hpp"

namespace cartcomm {

/// Abstract location of one block appended to a round's datatype: a send
/// block, a receive block (by neighbor index), or a temp-pool byte range.
struct PlanPlacement {
  enum class Kind : std::uint8_t { send_block, recv_block, temp };
  Kind kind = Kind::send_block;
  int index = 0;           // neighbor index (send_block / recv_block)
  std::size_t offset = 0;  // byte offset into the temp pool (temp)
  std::size_t bytes = 0;   // byte length (temp)
};

/// One recorded send-receive round: the placements appended to each
/// direction's datatype (in order) and the generating offset c*e_k from
/// which bind() resolves both partner ranks.
struct PlanRound {
  std::vector<PlanPlacement> send_items;
  std::vector<PlanPlacement> recv_items;
  std::vector<int> offset;
  long long blocks_sent = 0;
  bool reduce = false;  ///< reducing-unpack round (see ScheduleRound::reduce)
};

/// One recorded local copy of the final phase.
struct PlanCopy {
  PlanPlacement src;
  PlanPlacement dst;
};

/// One recorded fold step of a reducing plan (abstract form of
/// ScheduleFold; bind() resolves the placements to addresses). `dst` must
/// be a recv_block or temp placement; `src` additionally allows
/// send_block. `identity` fills dst with the op identity (src ignored).
struct PlanFold {
  PlanPlacement src;
  PlanPlacement dst;
  int count = 0;  ///< op elements
  int phase = 0;  ///< gate (see ScheduleFold::phase)
  bool init = false;
  bool identity = false;
};

/// Immutable rank-independent placement program (see file comment).
class CompiledPlan {
 public:
  /// Replay the program against concrete buffers, producing the same
  /// Schedule the direct builder would have produced on this process.
  [[nodiscard]] Schedule bind(const CartNeighborComm& cc,
                              std::span<const SendBlock> sends,
                              std::span<const RecvBlock> recvs) const;

  /// Reducing-plan bind: additionally resolves the fold program against the
  /// concrete buffers and attaches `op` to the schedule. Requires a
  /// reducing plan (recorded folds) and an op whose element size divides
  /// every folded placement.
  [[nodiscard]] Schedule bind(const CartNeighborComm& cc,
                              std::span<const SendBlock> sends,
                              std::span<const RecvBlock> recvs,
                              const mpl::ReduceOp& op) const;

  [[nodiscard]] int rounds() const noexcept {
    return static_cast<int>(rounds_.size());
  }
  [[nodiscard]] std::size_t temp_bytes() const noexcept { return temp_bytes_; }
  [[nodiscard]] bool reducing() const noexcept { return !folds_.empty(); }

 private:
  friend class PlanBuilder;

  [[nodiscard]] Schedule bind_impl(const CartNeighborComm& cc,
                                   std::span<const SendBlock> sends,
                                   std::span<const RecvBlock> recvs,
                                   const mpl::ReduceOp* op) const;

  std::vector<PlanRound> rounds_;
  std::vector<int> phase_rounds_;
  std::vector<PlanCopy> copies_;
  std::vector<PlanFold> folds_;
  std::size_t temp_bytes_ = 0;
  // The key fixes dims and periods, so every bound schedule can share it.
  std::shared_ptr<const mpl::CartGrid> grid_;
};

/// Incremental recorder used by the compile functions; mirrors
/// ScheduleBuilder so compile code reads like the original build code.
class PlanBuilder {
 public:
  explicit PlanBuilder(const mpl::CartGrid& grid) {
    p_.grid_ = std::make_shared<const mpl::CartGrid>(grid);
  }

  /// Reserve a temp-pool range; returns its byte offset.
  std::size_t allocate_temp(std::size_t bytes) {
    const std::size_t off = p_.temp_bytes_;
    p_.temp_bytes_ += bytes;
    return off;
  }

  void add_round(PlanRound r) {
    merge_temp_runs(r.send_items);
    merge_temp_runs(r.recv_items);
    p_.rounds_.push_back(std::move(r));
    ++open_phase_rounds_;
  }

  void end_phase() {
    p_.phase_rounds_.push_back(open_phase_rounds_);
    open_phase_rounds_ = 0;
  }

  void add_copy(PlanPlacement src, PlanPlacement dst) {
    p_.copies_.push_back({src, dst});
  }

  /// Record one fold step (execution order, nondecreasing phase tags).
  void add_fold(PlanFold f) { p_.folds_.push_back(std::move(f)); }

  CompiledPlan finish() {
    if (open_phase_rounds_ != 0) end_phase();
    return std::move(p_);
  }

 private:
  /// Fuse back-to-back temp placements that are adjacent in the pool. The
  /// pool is one contiguous range, so bind would merge their blocks into
  /// one anyway; fusing them here leaves it fewer placements to visit.
  static void merge_temp_runs(std::vector<PlanPlacement>& items) {
    std::size_t out = 0;
    for (const PlanPlacement& p : items) {
      if (out > 0 && p.kind == PlanPlacement::Kind::temp &&
          items[out - 1].kind == PlanPlacement::Kind::temp &&
          items[out - 1].offset + items[out - 1].bytes == p.offset) {
        items[out - 1].bytes += p.bytes;
      } else {
        items[out++] = p;
      }
    }
    items.resize(out);
  }

  CompiledPlan p_;
  int open_phase_rounds_ = 0;
};

/// Canonical cache key: every input the compile step depends on,
/// serialized into one word vector — collective kind, dimension order, d,
/// dims, periodicity, the boundary signature (clamped per-dimension edge
/// distances; -1 for periodic dimensions), the full neighborhood offset
/// list, per-neighbor block byte sizes, and a structural digest of every
/// block datatype. Two calls with equal keys compile identical plans.
struct PlanKey {
  std::vector<std::int64_t> words;
  std::size_t hash = 0;

  bool operator==(const PlanKey& o) const noexcept {
    return hash == o.hash && words == o.words;
  }
};

/// Key builders for the two collective kinds. Block *addresses* are
/// deliberately absent — plans are position- and buffer-independent.
/// `combining = false` keys the trivial plan, which never shares an entry
/// with the combining plan of the same signature.
[[nodiscard]] PlanKey make_alltoall_key(const CartNeighborComm& cc,
                                        std::span<const SendBlock> sends,
                                        std::span<const RecvBlock> recvs,
                                        bool combining = true);
[[nodiscard]] PlanKey make_allgather_key(const CartNeighborComm& cc,
                                         const SendBlock& send,
                                         std::span<const RecvBlock> recvs,
                                         DimOrder order,
                                         bool combining = true);

/// The two reducing collectives sharing one plan family: neighbor reduce
/// (every contribution is the source's block 0) and reduce_scatter_block
/// (the source contributes its i-th block toward neighbor i).
enum class ReduceVariant : std::uint8_t { reduce = 0, reduce_scatter = 1 };

/// Key for a reducing plan. Includes the op *digest*: plan structure does
/// not depend on the fold function, but the digest separates element sizes,
/// and each user op instance gets its own plan.
[[nodiscard]] PlanKey make_reduce_key(const CartNeighborComm& cc,
                                      ReduceVariant variant, bool combining,
                                      DimOrder order, const SendBlock& send,
                                      const mpl::ReduceOp& op);

/// Compile steps (Algorithm 1/2 with placements recorded instead of
/// datatypes built). Pure in the key: every input they read is covered by
/// the corresponding make_*_key.
[[nodiscard]] CompiledPlan compile_alltoall_plan(
    const CartNeighborComm& cc, std::span<const std::size_t> block_bytes);
[[nodiscard]] CompiledPlan compile_allgather_plan(const CartNeighborComm& cc,
                                                  std::size_t block_bytes,
                                                  DimOrder order);

/// The trivial algorithm (Listing 4) as a plan, for alltoall and allgather
/// alike: one single-round phase per non-zero neighbor vector, in neighbor
/// index order, and a final-phase local copy per zero vector. Round i sends
/// send block i (block 0 when `shared_send`, the allgather case) and
/// receives receive block i. Pure in the key like the steps above.
[[nodiscard]] CompiledPlan compile_trivial_plan(const CartNeighborComm& cc,
                                                bool shared_send);

/// Reducing compile step (reverse allgather tree with combine-on-unpack;
/// see reduce_schedule.cpp). `fold_elems` = op elements per block
/// (block_bytes / op.elem_size()).
[[nodiscard]] CompiledPlan compile_reduce_plan(const CartNeighborComm& cc,
                                               ReduceVariant variant,
                                               bool combining, DimOrder order,
                                               std::size_t block_bytes,
                                               int fold_elems);

// -- concurrent plan cache ---------------------------------------------------
//
// Process-global (ranks are threads of one process) and sharded by key
// hash; each shard is a small map under its own CheckedMutex at
// LockLevel::plan_cache. plan_cache_resolve is the cache interface used by
// the build_*_schedule entry points, once per build, so hits + misses
// counts every build; the remaining functions are test and tooling knobs.
// Compiles are single-flight: a miss compiles while holding its shard
// lock, so concurrent missers of the same key wait and then hit.
// The lock stays a leaf because compile steps are pure and take no lock
// (binding happens outside the lock).

/// Cached plan for `key`, or null on a miss (or when the cache is off).
[[nodiscard]] std::shared_ptr<const CompiledPlan> plan_cache_lookup(
    const PlanKey& key);

/// Cached plan for `key`, compiled by `compile` on a miss and published.
/// Every key compiles once while it stays cached (misses == inserts). With
/// the cache off, compiles without storing or counting.
[[nodiscard]] std::shared_ptr<const CompiledPlan> plan_cache_resolve(
    const PlanKey& key, const std::function<CompiledPlan()>& compile);

/// Cache toggle: defaults to on, initial value from MPL_PLAN_CACHE
/// (0/false disables). The programmatic setter overrides the environment.
[[nodiscard]] bool plan_cache_enabled();
void plan_cache_set_enabled(bool on);

/// Capacity bound (total cached plans, approximate: enforced per shard).
/// Defaults to 256, initial value from MPL_PLAN_CACHE_CAP; 0 means
/// "unbounded". Lowering the cap takes effect on subsequent inserts.
[[nodiscard]] std::size_t plan_cache_cap();
void plan_cache_set_cap(std::size_t cap);

/// Number of plans currently cached (sums all shards).
[[nodiscard]] std::size_t plan_cache_size();

/// Drop every cached plan (tests; outstanding shared_ptrs stay valid).
void plan_cache_clear();

}  // namespace cartcomm
