// Per-process message matching.
//
// Each simulated process owns one Mailbox. Senders deliver messages
// directly, in one of two forms: eager (the payload is packed by the
// sender into a pool buffer and unpacked by the match) or by reference
// (the message names the sender's buffer and datatype, and the receiver
// copies straight from it in its wait/test — see Comm::isend_ref). The
// mailbox matches them against posted receives using
// MPI semantics: (context, source, tag) with wildcards, FIFO per
// (sender, context) pair, matching in arrival/posting order.
//
// Delivery is two-phase (see DESIGN.md, "Transport hot path"): the
// mailbox mutex covers only match-and-dequeue; the datatype unpack of a
// matched payload runs outside the lock, and the completion flag is then
// published under a short re-acquisition. Wakeups are targeted: the
// mailbox records what its owner is blocked on (a specific request, a
// wait_any predicate, or a probe) and a deliverer signals the condvar only
// when its completion can satisfy that wait — a mailbox whose owner is
// busy computing sees no notify at all.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "mpl/annotations.hpp"
#include "mpl/checked.hpp"
#include "mpl/fault.hpp"
#include "mpl/pool.hpp"
#include "mpl/request.hpp"
#include "trace/trace.hpp"

namespace mpl {

/// Wildcard source rank (MPI_ANY_SOURCE analogue).
inline constexpr int ANY_SOURCE = -2;
/// Wildcard tag (MPI_ANY_TAG analogue).
inline constexpr int ANY_TAG = -2;
/// Null process rank: sends are dropped, receives complete immediately.
inline constexpr int PROC_NULL = -1;

namespace detail {

/// An in-flight message. An eager message carries a packed payload
/// borrowed from the sending process's BufferPool and returned there by
/// release() once the receiver has unpacked it; a message that is never
/// received just frees the buffer on destruction. A by-reference message
/// carries no payload: `ref` is the sender's request state, whose (base,
/// count, type) describe the bytes in place.
struct Message {
  std::uint64_t ctx = 0;
  int src = -1;
  int tag = -1;
  Buffer payload;
  BufferPool* pool = nullptr;  // origin pool; null for unpooled payloads
  std::shared_ptr<ReqState> ref;  // by-reference send state; null if eager
  double depart = 0.0;  // sender virtual-clock stamp
  double arrive_wall = -1.0;  // wall time of mailbox delivery (tracing only)
  bool from_self = false;

  /// Payload bytes, in either form.
  [[nodiscard]] std::size_t bytes() const {
    return ref ? ref->type.pack_size(ref->count) : payload.size();
  }

  /// Hand the payload back to its origin pool (no-op when unpooled).
  /// Must not be called while holding a mailbox lock.
  void release() {
    if (pool) {
      pool->recycle(std::move(payload));
      pool = nullptr;
    }
    payload = Buffer{};
  }
};

}  // namespace detail

class Mailbox {
 public:
  /// Install the runtime-wide abort flag consulted by blocking waits.
  void set_abort_flag(const std::atomic<bool>* flag) { abort_flag_ = flag; }

  /// Install the fault plan (wait timeouts, watchdog stall reports). Only
  /// wired when the plan has anything armed; null keeps waits untimed.
  void set_fault_ctx(const FaultPlan* plan, detail::RuntimeState* rt,
                     int rank) {
    faults_ = plan;
    rt_ = rt;
    rank_ = rank;
  }

  /// Wire the owning rank's instrumentation seam (Proc::init, before
  /// threads start): parked waits and wait timeouts become flight events,
  /// and with tracing armed deliveries are stamped with their wall time.
  void set_recorder(trace::Recorder* rec) noexcept { rec_ = rec; }

  /// Monotone count of delivery/progress events, sampled by the watchdog
  /// (a changing value proves the run is not stalled).
  [[nodiscard]] std::uint64_t activity() const noexcept {
    return activity_.load(std::memory_order_relaxed);
  }
  /// Whether the owning thread is parked in a blocking mailbox wait.
  [[nodiscard]] bool blocked() const noexcept {
    return blocked_.load(std::memory_order_relaxed);
  }

  /// Append this mailbox's pending state (blocked wait, posted receives,
  /// undelivered inbound messages) to `os`. Takes the mailbox lock; safe
  /// from any thread holding no tracked lock.
  void dump_pending(std::ostream& os) MPL_EXCLUDES(mtx_);

  /// Deliver a message (called by the sending thread). If a matching
  /// receive is posted it is dequeued under the lock, its payload unpacked
  /// after release (a by-reference message is only attached: the owner
  /// copies it in wait/test), and the request completed; otherwise the
  /// message is queued as unexpected. Wakes the owner only when the
  /// owner's recorded wait can be satisfied by this delivery.
  void deliver(detail::Message msg) MPL_EXCLUDES(mtx_);

  /// Post a receive (called by the owning thread). May complete
  /// immediately against an unexpected message (unpacked outside the
  /// lock; a by-reference one is attached for wait/test to copy).
  void post_recv(const std::shared_ptr<detail::ReqState>& r)
      MPL_EXCLUDES(mtx_);

  /// Finish a receive matched by reference (owner thread, no lock held):
  /// copy from the sender's datatype straight into the receive layout —
  /// unless the match was truncated — then complete the sender's request
  /// under the sender's mailbox lock. Called by Request::wait/test.
  static void pull(detail::ReqState& r);

  /// Publish the completion of `r`, a request this mailbox's owner may be
  /// parked on, and wake the owner when its recorded wait is satisfied.
  void publish(detail::ReqState& r) MPL_EXCLUDES(mtx_);

  /// Owner-thread fast path for a blocking receive with the network model
  /// off: match-and-consume an already queued unexpected message without
  /// materialising a request. Claims the whole shared unexpected queue
  /// into the owner-private claimed_ queue in one lock acquisition and
  /// serves from it lock-free afterwards. Returns false when nothing
  /// matching is queued (caller falls back to post_recv + wait). Throws
  /// Error on truncation, like wait() would. `arrive_wall` receives the
  /// message's delivery stamp (set only when tracing is armed).
  [[nodiscard]] bool try_recv_now(std::uint64_t ctx, int src, int tag,
                                  const Datatype& type, void* base, int count,
                                  Status* st, double* arrive_wall)
      MPL_EXCLUDES(mtx_);

  /// Block the owning thread until `r` completes (or the runtime aborts).
  void wait_done(const std::shared_ptr<detail::ReqState>& r)
      MPL_EXCLUDES(mtx_);

  /// Non-blocking completion check. Lock-free: the completion flag is
  /// released by the completing thread and acquired here, which also
  /// publishes the other completion fields.
  [[nodiscard]] bool poll_done(const std::shared_ptr<detail::ReqState>& r) {
    return r->done.load(std::memory_order_acquire);
  }

  /// Block the owning thread until `pred()` holds (checked under the
  /// mailbox lock, re-evaluated on every completion/arrival) or the
  /// runtime aborts. Used by wait_any and blocking probe. With a fault
  /// timeout armed, gives up after FaultConfig::timeout_ms and throws
  /// TimeoutError with the per-rank pending-operation dump.
  template <typename Pred>
  void wait_until(Pred&& pred) MPL_EXCLUDES(mtx_) {
    bool timed_out = false;
    {
      detail::CheckedLock lock(mtx_);
      wait_kind_ = WaitKind::any;
      // The predicate itself only reads completion atomics supplied by the
      // caller, never guarded mailbox state, so it carries no capability
      // contract.
      auto stop = [&] { return pred() || aborting(); };
      blocked_.store(true, std::memory_order_relaxed);
      // Flight event only when the wait will actually park (cold path).
      if (rec_ && !stop()) {
        rec_->flight(trace::EventKind::wait_block,
                     static_cast<int>(WaitKind::any));
      }
      if (!timeout_armed()) {
        cv_.wait(lock, stop);
      } else {
        timed_out = !timed_wait(lock, stop);
      }
      blocked_.store(false, std::memory_order_relaxed);
      wait_kind_ = WaitKind::none;
      if (pred()) return;
    }
    fail_wait(timed_out, "wait_any/wait_all predicate");
  }

  /// Match an unexpected (not yet received) message without consuming it
  /// (MPI_Iprobe). Fills `st` and returns true when one is queued.
  [[nodiscard]] bool probe_unexpected(std::uint64_t ctx, int src, int tag,
                                      Status* st) MPL_EXCLUDES(mtx_);

  /// Blocking probe (MPI_Probe): wait until a matching message is queued,
  /// return its envelope without consuming it.
  Status wait_probe(std::uint64_t ctx, int src, int tag) MPL_EXCLUDES(mtx_);

  /// Wake all waiters so they can observe the abort flag.
  void notify_abort() MPL_EXCLUDES(mtx_);

 private:
  /// What the owning thread is currently blocked on. Guarded by mtx_;
  /// there is at most one waiter per mailbox (only the owner blocks on
  /// cv_), so a single slot plus notify_one() is exact.
  enum class WaitKind : std::uint8_t {
    none,     ///< owner is not blocked: no notify needed
    request,  ///< wait_done on wait_req_
    any,      ///< wait_until: any completion or arrival may satisfy it
    probe,    ///< wait_probe on (probe_ctx_, probe_src_, probe_tag_)
  };

  static bool matches(const detail::ReqState& r, const detail::Message& m);
  /// Unpack a matched (request, message) pair and recycle the payload to
  /// its origin pool; a by-reference message is attached to the request
  /// instead, for pull(). Must run with the mailbox lock released: the unpack
  /// is the expensive phase-2 of delivery, and recycling to the pool while
  /// holding the mailbox would couple every sender to this receiver's
  /// pool contention (BufferPool::recycle additionally asserts no mailbox
  /// lock is held under MPL_CHECKED).
  void complete(detail::ReqState& r, detail::Message& m) MPL_EXCLUDES(mtx_);

  [[nodiscard]] bool aborting() const noexcept {
    return abort_flag_ && abort_flag_->load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool timeout_armed() const noexcept {
    return faults_ && faults_->timeout_armed();
  }

  /// Predicated wait with a wall-clock deadline. Sleeps in bounded slices
  /// so an abort is never missed for long. Returns false on timeout with
  /// `stop` still unsatisfied; the caller owns the lock throughout.
  template <typename Lock, typename Pred>
  bool timed_wait(Lock& lock, Pred stop) MPL_REQUIRES(mtx_) {
    using clock = std::chrono::steady_clock;
    const auto deadline =
        clock::now() + std::chrono::duration_cast<clock::duration>(
                           std::chrono::duration<double>(faults_->timeout_s()));
    constexpr auto kSlice = std::chrono::milliseconds(50);
    for (;;) {
      const auto now = clock::now();
      if (now >= deadline) return stop();
      const auto slice = std::min<clock::duration>(kSlice, deadline - now);
      if (cv_.wait_for(lock, slice, stop)) return true;
    }
  }

  /// Diagnose a failed blocking wait (defined in mailbox.cpp: needs the
  /// RuntimeState definition). Throws TimeoutError on timeout or when the
  /// watchdog published a stall report; a plain abort throws Error.
  /// Assembles the per-rank dump, which takes every mailbox lock in turn —
  /// hence the no-lock-held contract.
  [[noreturn]] void fail_wait(bool timed_out, const std::string& what)
      MPL_EXCLUDES(mtx_);

  detail::MailboxMutex mtx_;
  detail::CheckedCondVar cv_;
  std::deque<detail::Message> unexpected_ MPL_GUARDED_BY(mtx_);
  /// Unexpected messages the owner has claimed from unexpected_ in one
  /// locked bulk move (try_recv_now). Strictly older than everything in
  /// unexpected_, in arrival order, and touched ONLY by the owning
  /// thread — every matching path consults it first, lock-free.
  /// Deliberately NOT guarded: single-threaded by the ownership rule, not
  /// by a lock (the one shared touch, the bulk claim, happens under mtx_
  /// on the owner's side only).
  std::deque<detail::Message> claimed_;
  std::vector<std::shared_ptr<detail::ReqState>> posted_ MPL_GUARDED_BY(mtx_);
  const std::atomic<bool>* abort_flag_ = nullptr;
  const FaultPlan* faults_ = nullptr;
  detail::RuntimeState* rt_ = nullptr;
  trace::Recorder* rec_ = nullptr;
  int rank_ = -1;

  /// Progress signal for the watchdog: bumped on every delivery and posted
  /// receive. Relaxed — only sampled for change detection.
  std::atomic<std::uint64_t> activity_{0};
  /// Owner parked in a blocking cv wait (watchdog stall condition input).
  std::atomic<bool> blocked_{false};

  WaitKind wait_kind_ MPL_GUARDED_BY(mtx_) = WaitKind::none;
  /// Target of WaitKind::request. The pointer slot is written/compared
  /// under mtx_; the pointee is only dereferenced by dump_pending, also
  /// under mtx_ (completion fields proper are published via the atomic
  /// `done`, not this lock).
  const detail::ReqState* wait_req_ MPL_GUARDED_BY(mtx_)
      MPL_PT_GUARDED_BY(mtx_) = nullptr;
  std::uint64_t probe_ctx_ MPL_GUARDED_BY(mtx_) = 0;  // WaitKind::probe
  int probe_src_ MPL_GUARDED_BY(mtx_) = ANY_SOURCE;
  int probe_tag_ MPL_GUARDED_BY(mtx_) = ANY_TAG;
};

}  // namespace mpl
