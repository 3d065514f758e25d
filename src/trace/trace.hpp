// The instrumentation seam: one Recorder per rank (simulated process).
//
// Every instrumentation site of the transport and the schedule executor
// calls its rank's Recorder once, and the Recorder decides what to keep:
//   always    a compact slot in the 64-entry flight ring, dumped into
//             TimeoutError / watchdog stall reports;
//   counting  (metrics JSON or telemetry armed) one relaxed-atomic counter
//             per fact, per communicator, plus size/latency histograms;
//   tracing   (Chrome trace armed) the full Event: the deterministic LogGP
//             virtual clock and wall time, and a per-component cost
//             attribution that sums exactly to the virtual-clock advance
//             the event caused — summed over the slowest rank it rebuilds
//             the collective's makespan (tools/trace_report).
// Unarmed, nothing is allocated and no clock is read beyond the flight
// ring's one read per high-level event. Arming never switches the
// transport onto another path, and no hook touches the virtual clock.
//
// The Tracer serializes the ranks' recorders as Chrome trace-event JSON
// (Perfetto-loadable; one track per rank, one process group per traced
// section) and as the metrics JSON read by tools/bench_to_csv.py.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "telemetry/histogram.hpp"

namespace trace {

// == Cost components (the LogGP decomposition of Section 3's model) ==========

/// Where a slice of virtual time went. Mirrors the NetConfig parameters:
/// per-message CPU overhead `o`, latency `L`, per-byte wire time `G`,
/// per-block datatype cost `o_block`, packing cost `G_pack`, local copy
/// cost, and idle (waiting for a message that has not arrived yet).
enum class Component : int {
  o = 0,
  L = 1,
  G = 2,
  o_block = 3,
  G_pack = 4,
  copy = 5,
  idle = 6,
  /// Injected fault cost (straggler overhead, retransmit backoff) charged
  /// by the FaultPlan; zero in fault-free runs.
  fault = 7,
};

inline constexpr int kComponents = 8;

const char* component_name(int c) noexcept;

// == Events ==================================================================

/// One vocabulary for the trace ring and the flight ring. The first block
/// are full trace events; the second exists only as flight slots, whose
/// two small payloads `a`, `b` are noted per kind. wait_block is both.
enum class EventKind : std::uint8_t {
  send_post,      ///< isend posted: CPU overhead + departure stamp
  recv_post,      ///< irecv posted: CPU overhead
  recv_complete,  ///< a receive accounted an arrived message
  copy,           ///< schedule local-copy phase entry
  phase,          ///< one schedule phase: post -> all rounds complete
  section_begin,  ///< start of a named trace section (one collective run)
  section_end,
  fault_retry,    ///< injected drop: one retransmit backoff charge
  /// trace: blocking wait parked (wall span, zero modeled cost);
  /// flight: a = wait kind (Mailbox::WaitKind), b = match src or -1
  wait_block,
  sched_begin,    ///< a = schedule execution ordinal
  phase_begin,    ///< a = phase index
  round,          ///< a = phase index, b = round index
  sched_end,      ///< a = schedule execution ordinal
  retry,          ///< a = retransmits of one message, b = dest rank
  pool_miss,      ///< a = 1 when the miss was fault-forced
  wait_timeout,   ///< terminal: the wait that threw TimeoutError
};

const char* event_kind_name(EventKind k) noexcept;

struct Event {
  EventKind kind = EventKind::send_post;
  std::int32_t peer = -1;
  std::int32_t tag = -1;
  std::int32_t phase = -1;    ///< schedule phase scope (-1 outside)
  std::int32_t round = -1;    ///< schedule round scope (-1 outside)
  std::int32_t section = -1;  ///< trace section id (-1 outside)
  std::uint64_t ctx = 0;      ///< communicator context
  std::uint64_t bytes = 0;
  std::uint32_t blocks = 0;
  double v_start = 0.0;  ///< virtual-clock interval of the event
  double v_end = 0.0;
  double w_start = 0.0;  ///< wall-clock interval (seconds since run start)
  double w_end = 0.0;
  double depart = 0.0;       ///< recv_complete: sender's departure stamp
  double arrive_wall = -1.0; ///< recv_complete: wall time of mailbox arrival
  std::array<double, kComponents> comp{};  ///< cost attribution (seconds)
  std::string label;  ///< section events only

  void message(int p, int t, std::uint64_t c, std::uint64_t b,
               std::uint32_t nblocks = 0) {
    peer = p;
    tag = t;
    ctx = c;
    bytes = b;
    blocks = nblocks;
  }
  void span(double v0, double v1, double w0) {
    v_start = v0;
    v_end = v1;
    w_start = w0;
  }
};

// == The ring (flight slots and trace events alike) ==========================

/// Drop-oldest ring written by the owning rank's thread. The head counts
/// every slot ever claimed and is published with release order. N > 0
/// keeps N slots inline (no allocation); N == 0 grows storage on demand up
/// to the capacity given at construction.
template <class Slot, std::size_t N = 0>
class Ring {
 public:
  explicit Ring(std::size_t capacity = N)
      : cap_(N ? N : std::max<std::size_t>(capacity, 1)) {}

  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  /// Slots ever published (>= capacity() means the ring wrapped).
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return head_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(std::min<std::uint64_t>(recorded(), cap_));
  }

  /// Owner: the slot of the next sequence number (the oldest one once the
  /// ring is full). Fill it, then publish().
  Slot& claim() {
    const std::uint64_t seq = head_.load(std::memory_order_relaxed);
    if constexpr (N == 0) {
      if (slots_.size() < cap_) return slots_.emplace_back();
    }
    return slots_[seq % cap_];
  }
  void publish() noexcept {
    head_.store(head_.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
  }

  /// Visit the slots retained below `head` (a recorded() reading), oldest
  /// first.
  template <class F>
  void for_each(std::uint64_t head, F&& f) const {
    const std::uint64_t n = std::min<std::uint64_t>(head, cap_);
    for (std::uint64_t seq = head - n; seq < head; ++seq) {
      f(slots_[seq % cap_]);
    }
  }

 private:
  std::conditional_t<N == 0, std::vector<Slot>, std::array<Slot, N>> slots_{};
  std::size_t cap_;
  std::atomic<std::uint64_t> head_{0};
};

// == Counters ================================================================

/// A counter written only by the owning rank's thread (load + store, no
/// read-modify-write) and readable tear-free from any thread, e.g. the
/// periodic OpenMetrics snapshot. Copies snapshot the value.
template <class T>
class Relaxed {
 public:
  Relaxed() = default;
  explicit Relaxed(T v) noexcept : v_(v) {}
  Relaxed(const Relaxed& o) noexcept : v_(static_cast<T>(o)) {}
  Relaxed& operator=(const Relaxed& o) noexcept { return *this = T(o); }
  Relaxed& operator=(T v) noexcept {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }
  operator T() const noexcept { return v_.load(std::memory_order_relaxed); }
  Relaxed& operator+=(T d) noexcept { return *this = T(*this) + d; }
  Relaxed& operator++() noexcept { return *this += T{1}; }

 private:
  std::atomic<T> v_{};
};

// X(type, name, in_metrics_json); the metrics JSON prints the flagged
// fields in this order. packed_* / zero_copy_* split messages by whether
// they went through the datatype engine (blocks > 1); self_copies are
// schedule local copies; wait_stall_v is virtual idle waiting for
// arrivals, wait_stall_wall wall time parked in blocking waits; fault_*
// are FaultPlan injections. The unflagged rest feed OpenMetrics only.
#define TRACE_COUNTERS(X)                        \
  X(std::uint64_t, msgs_sent, true)              \
  X(std::uint64_t, bytes_sent, true)             \
  X(std::uint64_t, msgs_recv, true)              \
  X(std::uint64_t, bytes_recv, true)             \
  X(std::uint64_t, packed_msgs, true)            \
  X(std::uint64_t, packed_bytes, true)           \
  X(std::uint64_t, zero_copy_msgs, true)         \
  X(std::uint64_t, zero_copy_bytes, true)        \
  X(std::uint64_t, self_msgs, true)              \
  X(std::uint64_t, self_copies, true)            \
  X(std::uint64_t, self_copy_bytes, true)        \
  X(std::uint64_t, rounds, true)                 \
  X(std::uint64_t, phases, true)                 \
  X(std::uint64_t, schedule_executions, true)    \
  X(double, wait_stall_v, true)                  \
  X(double, wait_stall_wall, true)               \
  X(std::uint64_t, fault_retries, true)          \
  X(std::uint64_t, fault_delays, true)           \
  X(double, fault_backoff_v, true)               \
  X(double, fault_delay_v, true)                 \
  X(double, fault_straggler_v, true)             \
  X(std::uint64_t, waits, false)                 \
  X(std::uint64_t, reduce_folds, false)          \
  X(std::uint64_t, reduce_fold_bytes, false)     \
  X(std::uint64_t, reduces, false)

/// One counter per fact, for one communicator (all channels aggregated
/// under the base context) or summed over a rank's communicators.
struct Counters {
#define TRACE_FIELD(T, name, json) Relaxed<T> name;
  TRACE_COUNTERS(TRACE_FIELD)
#undef TRACE_FIELD

  void add(const Counters& o) noexcept;
};

/// The latency and size distributions of a rank (log-linear buckets).
struct Histograms {
  telemetry::Histogram collective_ns;  ///< schedule execution wall latency
  telemetry::Histogram wait_block_ns;  ///< time a blocking wait parked
  telemetry::Histogram msg_bytes;      ///< payload size of sent messages
  telemetry::Histogram reduce_ns;      ///< reducing execution wall latency

  void merge(const Histograms& o) noexcept {
    collective_ns.merge(o.collective_ns);
    wait_block_ns.merge(o.wait_block_ns);
    msg_bytes.merge(o.msg_bytes);
    reduce_ns.merge(o.reduce_ns);
  }
};

/// Fault-injection outcome of one post; all zero in fault-free runs.
struct Injected {
  int retries = 0;           ///< retransmits after injected drops
  int dest = -1;             ///< their destination
  double backoff_v = 0.0;    ///< virtual backoff charged for them
  bool delayed = false;      ///< the message got injected extra latency
  double delay_v = 0.0;      ///< of this much virtual time
  double straggler_v = 0.0;  ///< straggler overhead charged to the post
};

// == The per-rank seam =======================================================

class Recorder {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::size_t kFlightSlots = 64;

  Recorder();
  ~Recorder();

  /// Arm for one run (the runtime, before the rank's thread starts):
  /// `counting` allocates the counters and histograms, `trace` the event
  /// ring of `capacity` events; `base` is the run's wall-clock zero.
  void arm(bool counting, bool trace, std::size_t capacity,
           bool start_tracing, Clock::time_point base = Clock::now());

  // -- gates ------------------------------------------------------------------

  [[nodiscard]] bool counting() const noexcept { return tally_ != nullptr; }
  [[nodiscard]] bool trace_armed() const noexcept { return log_ != nullptr; }
  /// Whether full events are recorded right now (owner thread).
  [[nodiscard]] bool tracing() const noexcept { return tracing_; }
  [[nodiscard]] bool active() const noexcept {
    return tracing_ || counting();
  }
  /// Toggle event recording (no-op when tracing is unarmed).
  void set_tracing(bool on) noexcept { tracing_ = trace_armed() && on; }

  /// Seconds since the run's wall-clock zero.
  [[nodiscard]] double wall_now() const noexcept {
    return std::chrono::duration<double>(Clock::now() - base_).count();
  }
  /// Wall start of an interval that may become a trace event; 0 without a
  /// clock read unless tracing.
  [[nodiscard]] double wall_start() const noexcept {
    return tracing_ ? wall_now() : 0.0;
  }

  // -- scope ------------------------------------------------------------------

  /// Schedule phase/round in flight (-1 outside), kept by the executor.
  /// Readable from any thread: stall reports name the point each rank is
  /// blocked at.
  [[nodiscard]] int phase() const noexcept { return phase_; }
  [[nodiscard]] int round() const noexcept { return round_; }
  [[nodiscard]] int section() const noexcept { return section_; }
  /// Round scope of the receive being completed (executor).
  void set_round(int r) noexcept { round_ = r; }

  int begin_section(std::string label, double v_now);
  void end_section(double v_now);

  // -- recording --------------------------------------------------------------

  /// A slot of the always-on flight ring: the last kFlightSlots
  /// high-level events, one clock read plus relaxed stores each, no
  /// allocation. a/b are small payloads (clamped to 28 bits; -1 = none,
  /// elided from the dump). Returns the clock reading it stamped. Called
  /// alone on cold paths (parked waits, timeouts, pool misses).
  Clock::time_point flight(EventKind k, std::int32_t a = -1,
                           std::int32_t b = -1) noexcept {
    const Clock::time_point now = Clock::now();
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(now - base_);
    FlightSlot& s = flight_.claim();
    s.t_us.store(static_cast<std::uint64_t>(us.count()),
                 std::memory_order_relaxed);
    s.meta.store(pack(k, a, b), std::memory_order_relaxed);
    flight_.publish();
    return now;
  }
  [[nodiscard]] std::uint64_t flight_recorded() const noexcept {
    return flight_.recorded();
  }
  /// The flight timeline as one line: `+12us phase_begin(0) +15us ...`.
  /// Any thread may call it while the owner writes: a slot caught
  /// mid-overwrite prints garbage for that one event (the stall report
  /// says best-effort), each word tear-free.
  void dump_flight(std::ostream& os) const;

  /// A full trace event when tracing: `fill` describes it (w_end is
  /// pre-stamped now; scope fields left at -1 take the current scope).
  template <class Fill>
  void trace(EventKind k, Fill&& fill) {
    if (!tracing_) return;
    Event& e = log_->claim();
    e = Event{};
    e.kind = k;
    e.w_end = wall_now();
    fill(e);
    if (e.phase < 0) e.phase = phase_;
    if (e.round < 0) e.round = round_;
    e.section = section_;
    log_->publish();
  }
  /// Append a finished event (stamping the scope), when tracing.
  void record(Event&& e) {
    trace(e.kind, [&](Event& slot) { slot = std::move(e); });
  }

  // -- hooks: one call per instrumentation site -------------------------------

  /// isend posted (Comm::isend_core). `ctx` is the base context.
  template <class Fill>
  void on_send(std::uint64_t ctx, std::uint64_t bytes, std::uint32_t blocks,
               bool self, Fill&& fill) {
    if (tally_) count_send(ctx, bytes, blocks, self);
    trace(EventKind::send_post, fill);
  }

  /// A receive completed: request accounting or the blocking fast path.
  template <class Fill>
  void on_recv(std::uint64_t ctx, std::uint64_t bytes, double idle_v,
               Fill&& fill) {
    if (tally_) count_recv(ctx, bytes, idle_v);
    trace(EventKind::recv_complete, fill);
  }

  /// A blocking request wait that parked since `t0` (read only when
  /// counting: an uncounted wait is not timed).
  void on_wait(std::uint64_t ctx, std::uint64_t full_ctx, int peer,
               double v_now, Clock::time_point t0);

  /// Injected faults of one post (cold: only when some fault hit it).
  void on_faults(std::uint64_t ctx, const Injected& f);

  /// Schedule executor: begin (returns the start stamp of its latency),
  /// phase scope, round, local copy, fold step, end.
  Clock::time_point on_sched_begin(std::uint64_t ctx, std::int32_t ordinal);
  /// Enter phase `p` (`comm` = a communication phase, not the final copy
  /// phase). Returns the phase's wall start when tracing.
  double on_phase_begin(std::uint64_t ctx, int p, bool comm);
  void on_round(std::uint64_t ctx, int p, int r);
  void on_phase_end(std::uint64_t ctx, int p, double v0, double w0,
                    double v_now);
  template <class Fill>
  void on_copy(std::uint64_t ctx, std::uint64_t bytes, Fill&& fill) {
    if (tally_) count_copy(ctx, bytes);
    trace(EventKind::copy, fill);
  }
  void on_fold(std::uint64_t ctx, std::uint64_t bytes);
  void on_sched_end(std::uint64_t ctx, std::int32_t ordinal,
                    Clock::time_point t0, bool reducing);

  // -- reading ----------------------------------------------------------------

  /// This rank's live counters for one communicator (owner thread;
  /// counting armed).
  Counters& comm_counters(std::uint64_t ctx);
  /// Sum over every communicator; any thread, relaxed snapshot.
  [[nodiscard]] Counters totals() const;
  /// Counting armed only; any thread.
  [[nodiscard]] const Histograms& histograms() const noexcept;

  /// Trace events in recording order (oldest first); post-run / test use.
  [[nodiscard]] std::vector<Event> snapshot() const;
  [[nodiscard]] std::size_t event_count() const noexcept {
    return log_ ? log_->size() : 0;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return log_ ? log_->recorded() - log_->size() : 0;
  }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return log_ ? log_->capacity() : 0;
  }

  /// This rank's entry of the metrics JSON (after the run; counting
  /// armed).
  void write_metrics(std::ostream& os, int rank) const;

 private:
  struct Tally;
  struct FlightSlot {
    std::atomic<std::uint64_t> meta{0};
    std::atomic<std::uint64_t> t_us{0};
  };
  static constexpr std::uint64_t kFieldMask = (std::uint64_t{1} << 28) - 1;

  static std::uint64_t pack(EventKind k, std::int32_t a,
                            std::int32_t b) noexcept {
    const auto enc = [](std::int32_t v) -> std::uint64_t {
      // Biased by one so -1 encodes as 0; clamp keeps large ints in field.
      const auto u = static_cast<std::uint64_t>(std::max(v, -1) + 1);
      return std::min(u, kFieldMask);
    };
    return (static_cast<std::uint64_t>(k) << 56) | (enc(a) << 28) | enc(b);
  }

  void count_send(std::uint64_t ctx, std::uint64_t bytes,
                  std::uint32_t blocks, bool self);
  void count_recv(std::uint64_t ctx, std::uint64_t bytes, double idle_v);
  void count_copy(std::uint64_t ctx, std::uint64_t bytes);

  Ring<FlightSlot, kFlightSlots> flight_;
  Clock::time_point base_ = Clock::now();
  std::unique_ptr<Tally> tally_;
  std::unique_ptr<Ring<Event>> log_;
  bool tracing_ = false;
  Relaxed<int> phase_{-1};
  Relaxed<int> round_{-1};
  int section_ = -1;
  int next_section_ = 0;
};

// == Run-wide configuration and output =======================================

struct TraceConfig {
  /// Chrome trace-event JSON output path; non-empty arms event tracing.
  std::string chrome_path;
  /// Metrics JSON output path ("-" = stdout); non-empty arms metrics.
  std::string metrics_path;
  /// Ring capacity in events per rank (drop-oldest beyond this).
  std::size_t capacity = 1 << 16;
  /// Whether ranks record from the start; when false, nothing is recorded
  /// until a rank calls Comm::set_trace_enabled(true) (bench section mode).
  bool start_enabled = true;

  /// Environment overrides: MPL_TRACE (chrome path), MPL_METRICS (metrics
  /// path), MPL_TRACE_CAPACITY (events per rank).
  void apply_env();

  [[nodiscard]] bool trace_armed() const noexcept {
    return !chrome_path.empty();
  }
  [[nodiscard]] bool metrics_armed() const noexcept {
    return !metrics_path.empty();
  }
};

class Tracer {
 public:
  using Ranks = std::vector<const Recorder*>;

  /// The run's outputs, and the model metadata embedded in both JSON
  /// documents (o, L, G, ...); `model_enabled` makes Chrome timestamps
  /// virtual time.
  void configure(const TraceConfig& cfg,
                 std::vector<std::pair<std::string, double>> meta,
                 bool model_enabled) {
    cfg_ = cfg;
    model_meta_ = std::move(meta);
    model_enabled_ = model_enabled;
  }

  void write_chrome_json(std::ostream& os, const Ranks& ranks) const;
  void write_metrics_json(std::ostream& os, const Ranks& ranks) const;

  /// Write the configured output files. Returns an error message ("" = ok).
  std::string flush(const Ranks& ranks) const;

 private:
  void put_meta(std::ostream& os) const;  // model_meta_ as a JSON object

  TraceConfig cfg_;
  bool model_enabled_ = false;
  std::vector<std::pair<std::string, double>> model_meta_;
};

/// Write `body` to `path` ("-" = stdout). Returns "" or an error message
/// naming the path.
std::string write_output(const std::string& path,
                         const std::function<void(std::ostream&)>& body);

}  // namespace trace
