// One simulated process: rank, mailbox, virtual clock.
#pragma once

#include <atomic>

#include "mpl/fault.hpp"
#include "mpl/mailbox.hpp"
#include "mpl/netmodel.hpp"
#include "mpl/pool.hpp"
#include "trace/trace.hpp"

namespace mpl {

namespace detail {
struct RuntimeState;
}

/// Execution context of one simulated process. Owned by the runtime;
/// each Proc is driven by exactly one thread for the duration of run().
class Proc {
 public:
  [[nodiscard]] int world_rank() const noexcept { return world_rank_; }
  [[nodiscard]] int world_size() const noexcept { return world_size_; }

  Mailbox& mailbox() noexcept { return mailbox_; }
  NetClock& clock() noexcept { return clock_; }
  /// Payload buffer pool for messages *sent* by this process; receivers
  /// recycle buffers back here after unpacking.
  detail::BufferPool& pool() noexcept { return pool_; }
  detail::RuntimeState& runtime() noexcept { return *rt_; }

  /// This process's instrumentation seam: every transport and executor
  /// hook goes through it. Its flight ring is always on; counters and
  /// histograms exist when metrics or telemetry is armed, full trace
  /// events when tracing is (armed by the runtime before the thread
  /// starts). The same transport path runs either way.
  [[nodiscard]] trace::Recorder& recorder() noexcept { return recorder_; }
  [[nodiscard]] const trace::Recorder& recorder() const noexcept {
    return recorder_;
  }

  /// Internal: called once by the runtime before the process thread starts.
  void init(int world_rank, int world_size, detail::RuntimeState* rt) {
    world_rank_ = world_rank;
    world_size_ = world_size;
    rt_ = rt;
    mailbox_.set_recorder(&recorder_);
    pool_.set_recorder(&recorder_);
  }

  /// The run's fault plan; null when nothing is armed (the single-branch
  /// gate the transport's injection sites check first).
  [[nodiscard]] const FaultPlan* faults() const noexcept { return faults_; }

  /// Internal: wire the fault plan (runtime, before the thread starts).
  void set_faults(const FaultPlan* plan) noexcept { faults_ = plan; }

  /// Per-rank message sequence number feeding the fault plan's stateless
  /// decisions. Owner thread only, incremented in program order, so the
  /// decision stream is deterministic under any host interleaving.
  [[nodiscard]] std::uint64_t next_fault_seq() noexcept {
    return fault_seq_++;
  }

  /// The driving thread returned from the user function (set by the
  /// runtime; a finished rank can no longer make or need progress).
  void set_finished() noexcept {
    finished_.store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool finished() const noexcept {
    return finished_.load(std::memory_order_relaxed);
  }

 private:
  int world_rank_ = -1;
  int world_size_ = 0;
  Mailbox mailbox_;
  NetClock clock_;
  detail::BufferPool pool_;
  detail::RuntimeState* rt_ = nullptr;
  const FaultPlan* faults_ = nullptr;
  trace::Recorder recorder_;
  std::uint64_t fault_seq_ = 0;
  std::atomic<bool> finished_{false};
};

/// The Proc driven by the calling thread; null outside mpl::run().
Proc* this_proc() noexcept;

}  // namespace mpl
