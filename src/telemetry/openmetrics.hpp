// OpenMetrics/Prometheus text exposition of the telemetry layer.
//
// The writer takes a MetricsSnapshot assembled by the caller (the runtime
// sums the ranks' counters and histograms, pool stats and contention
// totals into it) so this translation unit stays free of mpl types. The
// output follows the OpenMetrics text format: `# TYPE` declarations,
// `_total` samples for counters, cumulative `_bucket{le="..."}` series
// plus `_count`/`_sum` for histograms, and a terminating `# EOF`.
// tools/check_openmetrics.py lints the result in CI.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "telemetry/contention.hpp"
#include "telemetry/plan_cache.hpp"
#include "trace/trace.hpp"

namespace telemetry {

struct PoolGauges {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t recycled = 0;
  std::uint64_t dropped = 0;
  std::uint64_t forced_misses = 0;
  std::uint64_t free_now = 0;        // summed freelist depth across ranks
  std::uint64_t free_watermark = 0;  // max per-rank freelist high-water mark
};

/// Aggregated (cross-rank) view handed to write_openmetrics: the ranks'
/// counters summed and their histograms merged in place (so the struct is
/// copy-free by design — build it where you use it).
struct MetricsSnapshot : trace::Histograms {
  int nprocs = 0;
  trace::Counters totals;
  PoolGauges pool;
  ContentionTotals contention;
  PlanCacheTotals plan_cache;
};

/// Write the snapshot in OpenMetrics text format, ending with `# EOF`.
void write_openmetrics(std::ostream& os, const MetricsSnapshot& snap);

}  // namespace telemetry
