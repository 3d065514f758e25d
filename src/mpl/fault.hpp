// Deterministic fault injection for the mpl transport.
//
// A FaultPlan is a seeded, fully deterministic fault model: every decision
// (drop this delivery attempt? delay this message? is this rank a
// straggler?) is a pure function of (seed, rank, per-rank message sequence
// number, attempt), computed with a splitmix64-style mixer. No shared RNG
// stream is ever consumed in arrival order, so the decisions — and with
// the LogGP model enabled, the resulting virtual clocks — are bit-identical
// across runs regardless of how the host schedules the simulated processes.
// That is what turns the transport into a deterministic-simulation-testing
// rig: any faulted failure replays from its seed.
//
// Injection points (see DESIGN.md, "Fault injection & resilience"):
//   - Comm::isend_core: message drops (sender-side retransmit with bounded
//     exponential backoff; retries happen inline before delivery, so FIFO
//     per (sender, ctx) is preserved by construction), per-message delay
//     jitter (added to the departure stamp: the message spends longer in
//     the network), and straggler post overhead.
//   - Comm::irecv_on: straggler post overhead on the receive side.
//   - BufferPool: forced freelist misses and a freelist depth override
//     (pool exhaustion under memory pressure).
//   - Mailbox blocking waits: a wall-clock timeout that surfaces a
//     structured TimeoutError with a per-rank dump of pending operations
//     instead of hanging.
//   - A runtime-owned watchdog thread that detects a globally stalled step
//     (every live rank blocked, no delivery activity) and aborts the run
//     with the same dump, annotated with each rank's schedule phase/round.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace mpl {

namespace detail {
struct RuntimeState;
}

/// Fault-model parameters. Probabilities in [0, 1], times in the units
/// noted. Configured programmatically via RunOptions::faults or through
/// the MPL_FAULTS environment spec, a comma-separated `key=value` list:
///
///   MPL_FAULTS="seed=42,drop=0.05,delay=5e-6,delay_prob=0.3,
///               straggler_frac=0.25,straggler=1e-6,pool_miss=0.5,
///               pool_cap=4,timeout_ms=500,watchdog_ms=1000"
///
/// Keys absent from the spec keep their programmatic values. MPL_TIMEOUT_MS
/// is a ceiling on timeout_ms alone: it arms the timeout when the program
/// did not and lowers a longer one, but a tighter programmatic timeout
/// stays (ctest sets it to bound every blocking wait).
struct FaultConfig {
  /// Base seed of every fault decision (combined with rank/sequence).
  std::uint64_t seed = 1;

  // -- message drops + retransmit --------------------------------------------
  /// Probability that one delivery attempt of a message is dropped.
  double drop = 0.0;
  /// Retransmit attempts before the sender gives up (throws Error).
  int max_retries = 16;
  /// Backoff charged for the first retransmit (virtual seconds); doubles
  /// per attempt up to backoff_cap.
  double backoff = 2e-6;
  double backoff_cap = 1e-3;

  // -- per-message delay jitter ----------------------------------------------
  /// Probability that a message is delayed in the network.
  double delay_prob = 0.0;
  /// Maximum extra latency of a delayed message (virtual seconds; the
  /// actual delay is uniform in [0, delay]).
  double delay = 0.0;

  // -- per-rank stragglers ---------------------------------------------------
  /// Fraction of ranks that are stragglers (chosen deterministically).
  double straggler_frac = 0.0;
  /// Extra CPU overhead a straggler pays per posted send/recv (virtual s).
  double straggler = 0.0;

  // -- buffer-pool exhaustion ------------------------------------------------
  /// Probability that a pool acquire is forced to miss the freelist.
  double pool_miss = 0.0;
  /// Freelist depth override (SIZE_MAX = keep the built-in cap).
  std::size_t pool_cap = static_cast<std::size_t>(-1);

  // -- resilience knobs (wall clock, milliseconds) ---------------------------
  /// Blocking waits give up after this long and throw TimeoutError with a
  /// per-rank pending-operation dump (0 = wait forever).
  double timeout_ms = 0.0;
  /// Progress watchdog period: a run with every live rank blocked and no
  /// delivery activity for this long is declared stalled and aborted with
  /// the same dump (0 = no watchdog).
  double watchdog_ms = 0.0;

  /// Parse a spec string (format above) on top of default values. Throws
  /// mpl::Error on unknown keys or malformed values.
  static FaultConfig parse(const std::string& spec);

  /// Apply the keys present in `spec` onto this config (merge semantics).
  void merge(const std::string& spec);

  /// Environment overrides: MPL_FAULTS (spec), MPL_TIMEOUT_MS.
  void apply_env();

  /// True when any injection knob (drop/delay/straggler/pool) is armed.
  [[nodiscard]] bool injecting() const noexcept {
    return drop > 0.0 || (delay_prob > 0.0 && delay > 0.0) ||
           (straggler_frac > 0.0 && straggler > 0.0) || pool_miss > 0.0 ||
           pool_cap != static_cast<std::size_t>(-1);
  }
};

/// The per-run fault decision engine. Configured once by mpl::run() before
/// the process threads start; all decision methods are const, pure and
/// thread-safe (no mutable state).
class FaultPlan {
 public:
  void configure(const FaultConfig& cfg, int nprocs) {
    cfg_ = cfg;
    nprocs_ = nprocs;
  }

  [[nodiscard]] const FaultConfig& config() const noexcept { return cfg_; }

  /// Any injection knob armed (gates the hot-path decision work).
  [[nodiscard]] bool injecting() const noexcept { return cfg_.injecting(); }
  [[nodiscard]] bool timeout_armed() const noexcept {
    return cfg_.timeout_ms > 0.0;
  }
  [[nodiscard]] bool watchdog_armed() const noexcept {
    return cfg_.watchdog_ms > 0.0;
  }
  /// Anything at all armed: injection, wait timeouts, or the watchdog.
  [[nodiscard]] bool any_armed() const noexcept {
    return injecting() || timeout_armed() || watchdog_armed();
  }

  [[nodiscard]] double timeout_s() const noexcept {
    return cfg_.timeout_ms * 1e-3;
  }
  [[nodiscard]] double watchdog_s() const noexcept {
    return cfg_.watchdog_ms * 1e-3;
  }

  /// Is delivery attempt `attempt` (0 = first) of the sender's `seq`-th
  /// faultable message dropped?
  [[nodiscard]] bool drop(int sender, std::uint64_t seq, int attempt) const {
    if (cfg_.drop <= 0.0) return false;
    return unit(mix(kDropSalt, u64(sender), seq,
                    static_cast<std::uint64_t>(attempt))) < cfg_.drop;
  }

  /// Backoff before retransmit `attempt` (1-based): bounded exponential.
  [[nodiscard]] double backoff(int attempt) const {
    double b = cfg_.backoff;
    for (int i = 1; i < attempt && b < cfg_.backoff_cap; ++i) b *= 2.0;
    return b < cfg_.backoff_cap ? b : cfg_.backoff_cap;
  }

  /// Extra in-network latency of the sender's `seq`-th message (0 when the
  /// message is not delayed).
  [[nodiscard]] double delay(int sender, std::uint64_t seq) const {
    if (cfg_.delay_prob <= 0.0 || cfg_.delay <= 0.0) return 0.0;
    const std::uint64_t h = mix(kDelaySalt, u64(sender), seq, 0);
    if (unit(h) >= cfg_.delay_prob) return 0.0;
    return unit(mix(kDelaySalt, u64(sender), seq, 1)) * cfg_.delay;
  }

  [[nodiscard]] bool is_straggler(int rank) const {
    if (cfg_.straggler_frac <= 0.0 || cfg_.straggler <= 0.0) return false;
    return unit(mix(kStragglerSalt, u64(rank), 0, 0)) < cfg_.straggler_frac;
  }

  /// Extra per-post CPU overhead of `rank` (0 for non-stragglers).
  [[nodiscard]] double straggler_overhead(int rank) const {
    return is_straggler(rank) ? cfg_.straggler : 0.0;
  }

  /// Is the rank's `seq`-th pool acquire forced to miss the freelist?
  [[nodiscard]] bool pool_forced_miss(int rank, std::uint64_t seq) const {
    if (cfg_.pool_miss <= 0.0) return false;
    return unit(mix(kPoolSalt, u64(rank), seq, 0)) < cfg_.pool_miss;
  }

  /// Freelist depth cap override (very large when not configured).
  [[nodiscard]] std::size_t pool_cap() const noexcept { return cfg_.pool_cap; }

 private:
  static constexpr std::uint64_t kDropSalt = 0xD509;
  static constexpr std::uint64_t kDelaySalt = 0xDE1A;
  static constexpr std::uint64_t kStragglerSalt = 0x57A6;
  static constexpr std::uint64_t kPoolSalt = 0x900C;

  static std::uint64_t u64(int v) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
  }

  static std::uint64_t splitmix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  [[nodiscard]] std::uint64_t mix(std::uint64_t salt, std::uint64_t a,
                                  std::uint64_t b, std::uint64_t c) const {
    std::uint64_t h = splitmix(cfg_.seed ^ (salt * 0x2545f4914f6cdd1dULL));
    h = splitmix(h ^ (a * 0x9e3779b97f4a7c15ULL));
    h = splitmix(h ^ (b * 0xc2b2ae3d27d4eb4fULL));
    h = splitmix(h ^ (c * 0x165667b19e3779f9ULL));
    return h;
  }

  /// Map a hash to [0, 1) with full double precision.
  static double unit(std::uint64_t h) {
    return static_cast<double>(h >> 11) * 0x1.0p-53;
  }

  FaultConfig cfg_;
  int nprocs_ = 0;
};

namespace detail {

/// Assemble the per-rank dump of pending operations (blocked waits, posted
/// receives, undelivered inbound messages, schedule phase/round) used by
/// TimeoutError and the watchdog's stall report. Takes each mailbox lock
/// briefly; the caller must hold no tracked lock (asserted under
/// MPL_CHECKED).
std::string pending_ops_dump(RuntimeState& rt);

}  // namespace detail

}  // namespace mpl
