// Runtime launcher: spawns p simulated processes (threads) and hands each
// a world communicator, like mpirun + MPI_Init rolled into one call.
#pragma once

#include <functional>

#include "mpl/fault.hpp"
#include "mpl/netmodel.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace.hpp"

namespace mpl {

class Comm;

struct RunOptions {
  /// Network cost model; off() means wall-clock mode.
  NetConfig net = NetConfig::off();
  /// Tracing/metrics configuration. Environment variables (MPL_TRACE,
  /// MPL_METRICS, MPL_TRACE_CAPACITY) override these fields. A metrics
  /// path arms every rank's counters (the same ones telemetry arms), a
  /// Chrome path the event ring; unarmed, each instrumentation site costs
  /// a flag check and allocates nothing. Output files are written when
  /// run() returns.
  trace::TraceConfig trace;
  /// Deterministic fault injection and resilience knobs (drops + retransmit,
  /// delay jitter, stragglers, pool exhaustion, wait timeouts, progress
  /// watchdog). Environment overrides: MPL_FAULTS spec, MPL_TIMEOUT_MS.
  /// Fully disarmed by default at one null-pointer check per site.
  FaultConfig faults;
  /// Production telemetry: the per-rank counters and latency/size
  /// histograms (shared with metrics), lock-contention probes, and the
  /// OpenMetrics exporter. Environment overrides: MPL_TELEMETRY,
  /// MPL_OPENMETRICS, MPL_OPENMETRICS_PERIOD_MS. Disarmed by default; the
  /// flight ring is always on regardless, and no setting here or in
  /// `trace` changes which transport path runs.
  telemetry::TelemetryConfig telemetry;
};

/// Run `fn` on `nprocs` simulated processes. Each process receives its own
/// world communicator handle. If any process throws, the runtime aborts all
/// blocking waits and rethrows the first exception in the caller.
void run(int nprocs, const std::function<void(Comm&)>& fn,
         const RunOptions& opts = {});

}  // namespace mpl
