// Precomputed communication schedules (Section 3).
//
// A Schedule is the executable form of a message-combining plan: d+1
// phases of send-receive rounds. Each round carries the ranks of the two
// partners and one absolute-address structured datatype per direction
// describing all blocks grouped into that round (the paper's zero-copy
// representation: no packing into intermediate staging buffers is ever
// done by the executor — blocks move directly between the user buffers and
// the schedule's in-transit slots via derived datatypes). Executing a
// schedule is exactly Listing 5: non-blocking send/receive of all rounds
// of a phase, then wait, phase by phase. A final non-communication phase
// performs local copies (self blocks, duplicated allgather targets).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mpl/comm.hpp"
#include "mpl/datatype.hpp"
#include "mpl/op.hpp"
#include "mpl/topology.hpp"

namespace trace {
class Recorder;
}

namespace cartcomm {

/// Reserved tag for schedule traffic (the paper's CARTTAG).
inline constexpr int kCartTag = 7771;

/// One send-receive round: exchange with fixed partners, all blocks of the
/// round described by one datatype per direction.
struct ScheduleRound {
  int sendrank = mpl::PROC_NULL;
  int recvrank = mpl::PROC_NULL;
  mpl::Datatype sendtype;  ///< absolute (use with mpl::BOTTOM); may be empty
  mpl::Datatype recvtype;  ///< absolute; may be empty
  /// Relative offset generating this round (c*e_k). Used by merge() to
  /// decide coalescing in a process-independent way: every process must
  /// fuse the same rounds or FIFO message pairing would break at mesh
  /// boundaries, so the decision is keyed on offsets, never on ranks.
  /// Views storage the schedule owns (its bind's arena).
  std::span<const int> offset;
  /// Provenance of a PROC_NULL partner: set by the schedule builders when
  /// the round's offset leaves a non-periodic mesh from this process, so
  /// the executor and the verifier can distinguish an intentional
  /// mesh-boundary hole from a rank-computation mismatch. Execution
  /// refuses to silently skip a PROC_NULL partner that lacks this flag.
  bool send_boundary = false;
  bool recv_boundary = false;
  /// Reducing-unpack round: the received blocks land in staging slots and
  /// are *folded* into their destinations by the schedule's fold program
  /// (see ScheduleFold) instead of being final data. Rendered distinctly
  /// by dump().
  bool reduce = false;
};

/// A local data movement (e.g. the self block): copy through absolute types.
struct ScheduleCopy {
  mpl::Datatype src;
  mpl::Datatype dst;
};

/// One step of a reducing schedule's fold program: combine `count` op
/// elements at `src` into the accumulator at `dst`. The program is recorded
/// at compile time in a fixed order and gated by phase tags, so the combine
/// order is a function of the schedule alone — never of message arrival
/// order — which keeps floating-point results bit-identical across runs,
/// fault seeds and jitter.
struct ScheduleFold {
  const void* src = nullptr;  ///< null = fill dst with the op identity
  void* dst = nullptr;
  int count = 0;              ///< elements of the op's elem_size
  /// Applied once communication phase `phase` has fully drained (incoming
  /// staging slots are final). Leaf initializations carry -1: they read
  /// only the caller's send buffer and must run before phase 0 posts
  /// (its sends read dst: packed at isend, or read in place by the
  /// receiver before the phase drains).
  int phase = 0;
  bool init = false;  ///< first write to dst: copy instead of combine
};

struct ExecutionScratch;

/// Executable communication schedule, bound to the buffers it was built
/// for. Owns the temporary in-transit buffer. Schedules are precomputed by
/// the *_init operations and reused across executions (the persistent
/// usage of Section 2), or built on the fly by the non-persistent calls.
/// Copies share the temp buffer (the round types address it anyway).
class Schedule {
 public:
  /// Run the schedule (Listing 5): all rounds of a phase concurrently with
  /// non-blocking operations, phases in order; local copies last. Blocking
  /// executions on one rank cannot overlap, so they all work out of one
  /// ExecutionScratch per rank thread and recycle its receive states.
  void execute(const mpl::Comm& comm) const;

  class Execution;
  /// Begin a non-blocking execution (posts the first phase and returns).
  /// Progress is made inside Execution::test()/wait(), like an MPI
  /// library's progress engine; at most one execution of a given schedule
  /// may be in flight at a time (rounds share the schedule's tag and
  /// buffers). This is the non-blocking/persistent mode the paper
  /// anticipates for the MPI Forum's persistent collectives. The execution
  /// works out of the caller-owned scratch (see ExecutionScratch), so
  /// repeated executions reuse the request table and recycle receive
  /// request states instead of allocating. At most one execution may use a
  /// given scratch at a time.
  [[nodiscard]] Execution start(const mpl::Comm& comm,
                                ExecutionScratch& scratch) const;

  // -- introspection (tests, benchmarks) ------------------------------------

  /// Communication phases (excluding the local-copy phase).
  [[nodiscard]] int phases() const noexcept {
    return static_cast<int>(phase_rounds_.size());
  }
  /// Total send-receive rounds C.
  [[nodiscard]] int rounds() const noexcept {
    return static_cast<int>(rounds_.size());
  }
  [[nodiscard]] std::span<const int> phase_rounds() const noexcept {
    return phase_rounds_;
  }
  [[nodiscard]] std::span<const ScheduleRound> round_list() const noexcept {
    return rounds_;
  }
  /// Number of block transmissions this process performs (the per-process
  /// communication volume V of Propositions 3.2/3.3, when counted in blocks).
  [[nodiscard]] long long send_block_count() const noexcept {
    return send_blocks_;
  }
  /// Bytes this process sends over all rounds (V*m for uniform blocks).
  [[nodiscard]] long long send_bytes() const;
  /// Number of local copies in the final phase.
  [[nodiscard]] int copy_count() const noexcept {
    return static_cast<int>(copies_.size());
  }
  [[nodiscard]] std::size_t temp_bytes() const noexcept { return temp_bytes_; }

  /// True when this schedule carries a reduction (a fold program and an op).
  [[nodiscard]] bool reducing() const noexcept { return op_.valid(); }
  [[nodiscard]] const mpl::ReduceOp& op() const noexcept { return op_; }
  [[nodiscard]] std::span<const ScheduleFold> folds() const noexcept {
    return folds_;
  }

  /// Human-readable dump of the schedule structure: phases, rounds with
  /// generating offsets, partner ranks (PROC_NULL partners annotated with
  /// their mesh-boundary provenance), block counts and bytes per direction,
  /// and the final local-copy phase. Used for debugging, the
  /// schedule_explorer example, and golden-output tests.
  [[nodiscard]] std::string dump() const;

  /// Back-compat alias for dump().
  [[nodiscard]] std::string describe() const { return dump(); }

  /// Concatenate several schedules phase-wise into one (rounds of equal
  /// phase index run concurrently) — the schedule-combination facility
  /// discussed in Section 3.4 for overlap-avoiding halo exchanges. With
  /// `coalesce` (the default), rounds of the same phase addressing the
  /// same partner pair are fused into a single send-receive round by
  /// concatenating their datatypes, so combining sub-schedules does not
  /// increase the number of messages.
  static Schedule merge(std::vector<Schedule> parts, bool coalesce = true);

 private:
  friend class ScheduleBuilder;

  std::vector<ScheduleRound> rounds_;
  std::vector<int> phase_rounds_;   // rounds per communication phase
  std::vector<ScheduleCopy> copies_;
  // For offset congruence in merge(); shared with the compiled plan.
  std::shared_ptr<const mpl::CartGrid> grid_;
  // What the rounds reference by address: a bind's arena (round types,
  // in-transit temp pool, round offsets) or, after merge(), the storage of
  // every part. Never reallocated, so those addresses stay valid.
  std::shared_ptr<const void> storage_;
  std::size_t temp_bytes_ = 0;
  long long send_blocks_ = 0;
  // Reducing schedules: the fold program (compile-order, phase-gated) and
  // the operator it folds with. Empty/invalid for movement schedules.
  std::vector<ScheduleFold> folds_;
  mpl::ReduceOp op_;
};

/// Rounds that send at least this many bytes go by reference
/// (mpl::Comm::isend_ref): the receiver does the only copy, straight from
/// the round's datatype. The bench_transport `sweep` workload (4 ranks,
/// persistent trivial alltoall) put the crossover between 256 B, where
/// the eager pack + unpack was ahead, and 4 KiB, the smallest block at
/// which every by-reference run beat every eager one; curves in
/// CHANGES.md.
inline constexpr std::size_t kSingleCopyBytes = std::size_t{4} << 10;

/// Reusable per-execution working set: the pending-request table and the
/// receive request-state slots, passed to Schedule::start(comm, scratch).
/// A persistent collective keeps its own; blocking executions share one
/// per rank thread (Schedule::execute). After a warm-up execution has
/// sized the vectors and populated the slots, further executions of the
/// schedule run without heap allocation — requests land in retained
/// capacity and receives recycle their request states via
/// Comm::irecv_reuse.
struct ExecutionScratch {
  std::vector<mpl::Request> pending;
  std::vector<int> pending_round;  // round scope of each pending receive
  std::size_t head = 0;            // completed prefix of `pending`
  /// By-reference sends of the phase in flight that were not complete at
  /// post time; drained with the receives before the phase boundary.
  std::vector<mpl::Request> sends;
  /// Receive and by-reference send request states, indexed by posting
  /// order within one execution; persists across executions so states
  /// are recycled.
  std::vector<std::shared_ptr<mpl::detail::ReqState>> slots;
  std::size_t next_slot = 0;  // next slot to (re)use in this execution
};

/// In-flight non-blocking execution of a Schedule. Phases advance inside
/// test()/wait(); destruction of an incomplete execution is an error
/// caught by assertion in debug use (wait() must be called).
class Schedule::Execution {
 public:
  Execution() = default;

  /// True once every phase and the local-copy phase have completed.
  [[nodiscard]] bool done() const noexcept { return done_; }

  /// Make progress: complete finished rounds, post the next phase when the
  /// current one drains. Returns done().
  [[nodiscard]] bool test();

  /// Drive the execution to completion (blocking).
  void wait();

 private:
  friend class Schedule;
  Execution(const Schedule* s, const mpl::Comm& comm,
            ExecutionScratch* scratch);
  void post_phase();
  void finish_copies();
  void apply_folds(int below);
  void drain_pending();
  [[nodiscard]] std::shared_ptr<mpl::detail::ReqState>& next_slot();
  void begin_phase_scope(int phase, bool comm_phase);
  void end_phase_scope();

  const Schedule* sched_ = nullptr;
  mpl::Comm comm_;
  std::size_t phase_ = 0;       // next phase to post
  std::size_t round_base_ = 0;  // first round index of that phase
  ExecutionScratch* scratch_ = nullptr;  // caller-owned
  bool done_ = true;
  std::size_t next_fold_ = 0;  // applied prefix of the fold program

  // The rank's instrumentation seam and the scope of the phase in flight.
  trace::Recorder* rec_ = nullptr;
  int cur_phase_ = -1;          // phase currently in flight
  double phase_v0_ = 0.0;       // virtual/wall start of that phase
  double phase_w0_ = 0.0;
  std::int32_t exec_ordinal_ = -1;  // per-rank execution number (flight)
  std::chrono::steady_clock::time_point t0_{};  // execution start
};

/// Incremental builder used by CompiledPlan::bind.
class ScheduleBuilder {
 public:
  void set_grid(std::shared_ptr<const mpl::CartGrid> grid) {
    s_.grid_ = std::move(grid);
  }
  void set_grid(const mpl::CartGrid& grid) {
    set_grid(std::make_shared<const mpl::CartGrid>(grid));
  }

  /// Adopt the storage the rounds will reference (temp pool, offsets);
  /// `temp_bytes` of it is the in-transit temp pool.
  void set_storage(std::shared_ptr<const void> storage,
                   std::size_t temp_bytes) {
    s_.storage_ = std::move(storage);
    s_.temp_bytes_ = temp_bytes;
  }

  /// Size every list up front, so building appends without reallocating.
  void reserve(std::size_t rounds, std::size_t phases, std::size_t copies,
               std::size_t folds) {
    s_.rounds_.reserve(rounds);
    s_.phase_rounds_.reserve(phases);
    s_.copies_.reserve(copies);
    s_.folds_.reserve(folds);
  }

  void add_round(ScheduleRound r, long long blocks_sent) {
    s_.rounds_.push_back(std::move(r));
    s_.send_blocks_ += blocks_sent;
    ++open_phase_rounds_;
  }

  void end_phase() {
    s_.phase_rounds_.push_back(open_phase_rounds_);
    open_phase_rounds_ = 0;
  }

  void add_copy(mpl::Datatype src, mpl::Datatype dst) {
    s_.copies_.push_back({std::move(src), std::move(dst)});
  }

  /// Attach the reduction operator (marks the schedule as reducing).
  void set_op(mpl::ReduceOp op) { s_.op_ = std::move(op); }

  /// Append one fold step. Steps must be recorded in execution order with
  /// nondecreasing phase tags (the executor applies them with a cursor).
  void add_fold(ScheduleFold f) { s_.folds_.push_back(f); }

  Schedule finish() {
    if (open_phase_rounds_ != 0) end_phase();
    return std::move(s_);
  }

 private:
  Schedule s_;
  int open_phase_rounds_ = 0;
};

}  // namespace cartcomm
