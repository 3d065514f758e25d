// Production telemetry configuration for the simulated-MPI runtime.
//
// Telemetry counts the same facts as the metrics JSON, in the same place:
// arming either one arms every rank's counters and histograms in its
// instrumentation seam (trace::Recorder). Telemetry adds the process-wide
// lock-contention probes (contention.hpp), the plan-cache window
// (plan_cache.hpp) and the OpenMetrics exporter (openmetrics.hpp).
//
// TelemetryConfig is the runtime knob block (RunOptions::telemetry),
// overlay-able from the environment:
//   MPL_TELEMETRY=1                 arm histograms + contention probes
//   MPL_OPENMETRICS=path            write an OpenMetrics snapshot (implies
//                                   MPL_TELEMETRY; `-` = stdout)
//   MPL_OPENMETRICS_PERIOD_MS=N     also rewrite the file every N ms
#pragma once

#include <string>

#include "telemetry/contention.hpp"

namespace telemetry {

struct TelemetryConfig {
  bool enabled = false;
  std::string openmetrics_path;
  double period_ms = 0.0;

  /// Overlay MPL_TELEMETRY / MPL_OPENMETRICS / MPL_OPENMETRICS_PERIOD_MS.
  void apply_env();

  [[nodiscard]] bool armed() const noexcept {
    return enabled || !openmetrics_path.empty();
  }
};

}  // namespace telemetry
