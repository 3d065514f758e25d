// Shared types of the repository benchmark: wall-clock stamps, the span
// log of the traced run, the per-rank workload interface and the small
// statistics helpers. Everything here sits outside the library; the
// workloads reach mpl and cartcomm through their public headers only.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mpl/comm.hpp"

namespace cartbench {

/// Steady-clock time in microseconds. All rank threads share this clock,
/// so stamps taken on different ranks are directly comparable.
inline double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64 finaliser: the benchmark's only source of input data.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// -- tracing ------------------------------------------------------------------

/// Layer boundaries the traced run times, one per public call (or
/// application step) the benchmark makes.
enum class Name : std::uint8_t {
  op,         ///< one timed op (parent of the spans below)
  undivided,  ///< the undivided public call on alternate ops
  bind,       ///< build_*_schedule_shared
  start,      ///< Schedule::start / PersistentColl::start
  wait,       ///< Execution::wait / CartRequest::wait
  allreduce,  ///< world mpl::allreduce
  compute,    ///< the application's Jacobi sweep
  stage,      ///< the application rewriting its send blocks
  oracle,     ///< result checking (never part of an op's time)
  create,     ///< cart_neighborhood_create
};
inline constexpr int kNames = 10;
const char* name_str(Name n);

struct Span {
  double t0 = 0.0;
  double t1 = 0.0;
  long op = -1;
  int parent = -1;  ///< index of the parent span in the same rank's log
  int rank = 0;
  Name name = Name::op;
};

/// One rank's span buffer. Capacity is reserved up front so appending
/// never allocates inside a timed region; the harness stops the traced
/// phase before the buffer can fill.
class SpanLog {
 public:
  SpanLog(int rank, std::size_t capacity) : rank_(rank) {
    spans_.reserve(capacity);
  }
  int open(Name n, long op, int parent = -1) {
    spans_.push_back({now_us(), 0.0, op, parent, rank_, n});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int i) { spans_[static_cast<std::size_t>(i)].t1 = now_us(); }
  [[nodiscard]] std::span<const Span> spans() const { return spans_; }

 private:
  int rank_;
  std::vector<Span> spans_;
};

/// Child span for the enclosing scope; does nothing when `log` is null
/// (the untraced run).
class Scope {
 public:
  Scope(SpanLog* log, Name n, long op, int parent)
      : log_(log), i_(log ? log->open(n, op, parent) : -1) {}
  ~Scope() {
    if (log_) log_->close(i_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int i_;
};

// -- workloads ----------------------------------------------------------------

struct Params {
  std::string workload;
  std::uint64_t seed = 1;
  int nprocs = 4;
  std::vector<int> dims{2, 2};
  int halo_n = 64;       ///< local interior edge of halo_step
  /// Op at which rank 0 corrupts one received block (never by default).
  long corrupt_op = std::numeric_limits<long>::min();
};

/// Cross-rank state of one mpl::run (ranks are threads of this process).
struct Shared {
  explicit Shared(int nprocs)
      : shadow(static_cast<std::size_t>(nprocs)),
        resid(2 * static_cast<std::size_t>(nprocs)) {}
  /// halo_step: each rank's field as it was just before the exchange.
  std::vector<std::vector<double>> shadow;
  /// halo_step: local residuals, double-buffered by op parity.
  std::vector<double> resid;
  /// halo_step: the global interior, written by snapshot().
  std::vector<double> field;
};

struct OpTime {
  double entry = 0.0;  ///< rank-local stamp at op entry (µs)
  double dur = 0.0;    ///< rank-local op time, oracle excluded (µs)
};

/// Exact per-op schedule counts of the workload's cartcomm calls,
/// averaged over its cycle of call kinds.
struct Counts {
  double rounds = 0.0;
  double msgs = 0.0;
  double send_bytes = 0.0;
  double temp_bytes = 0.0;
};

/// Layer probes the traced run takes after its traced phase. NaN means the
/// layer's value comes from the op spans instead.
struct Probes {
  double compile_ms = kNaN;
  double lookup_us = kNaN;
  double bind_us = kNaN;
  double reduce_us = kNaN;
  double allreduce_us = kNaN;
  double pack_gb_s = kNaN;
};

/// One rank's instance of a workload.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Collective: communicator, buffers, persistent init, warm-up op(s).
  /// Oracle failures of the warm-up and schedule-structure mismatches are
  /// added to `fails`.
  virtual void setup(const mpl::Comm& world, SpanLog* log, long& fails) = 0;
  /// Untimed application work before op k (rewriting send blocks).
  virtual void stage(long k, SpanLog* log) = 0;
  /// Timed op k; checks its result outside the timed part.
  virtual OpTime op(long k, SpanLog* log, long& fails) = 0;
  /// Application block bytes this rank receives in op k.
  [[nodiscard]] virtual double payload_bytes(long k) const = 0;
  [[nodiscard]] virtual Counts counts() const = 0;
  /// Distinct compiled-plan keys the workload uses.
  [[nodiscard]] virtual int plan_keys() const = 0;
  /// Number of call kinds in the op cycle and the kind of op k.
  [[nodiscard]] virtual int kinds() const { return 1; }
  [[nodiscard]] virtual int kind(long /*k*/) const { return 0; }
  /// Checked ops setup() runs before the first timed op.
  [[nodiscard]] virtual int warmup_ops() const { return 1; }
  /// Collective layer probes (traced run only).
  virtual void probe(Probes& out) = 0;
  /// Publish end-of-run state for cross-run comparison (halo_step field).
  virtual void snapshot() {}
};

/// True when the traced op k is split into the public steps of its call;
/// the other ops time the undivided call.
inline bool split_op(const Workload& w, long k) {
  return (k / w.kinds()) % 2 == 0;
}

std::unique_ptr<Workload> make_workload(const Params& p, Shared& sh, int rank);
bool known_workload(const std::string& name);

// -- statistics ---------------------------------------------------------------

/// Nearest-rank quantile (q in [0, 1]); NaN for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Median duration of `f()` over `reps` calls, in microseconds.
template <typename F>
double median_call_us(int reps, F&& f) {
  std::vector<double> d(static_cast<std::size_t>(reps));
  for (double& x : d) {
    const double t0 = now_us();
    f();
    x = now_us() - t0;
  }
  return median(std::move(d));
}

// -- trace analysis -----------------------------------------------------------

/// Per-layer figures derived from the spans of the traced phase.
struct TraceSummary {
  double op_p50_us = kNaN;  ///< p50 over ops of the max-over-ranks op time
  double start_us = kNaN;
  double wait_us = kNaN;
  double bind_us = kNaN;
  double allreduce_us = kNaN;
  double app_us = kNaN;          ///< compute spans, else stage spans
  double comm_share = kNaN;
  double entry_skew_us = kNaN;
  double unattributed_us = kNaN;
  double undivided_kind_us[3] = {kNaN, kNaN, kNaN};
  double uncovered_share = kNaN;  ///< median gap of split ops ÷ median op
  long nesting_errors = 0;
  long ops = 0;
};

TraceSummary analyse(std::span<const SpanLog> logs, const Workload& w);

/// Write every rank's spans as CSV (one line per span).
bool write_spans(const std::string& path, std::span<const SpanLog> logs);

}  // namespace cartbench
