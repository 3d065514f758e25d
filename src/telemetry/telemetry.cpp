#include "telemetry/telemetry.hpp"

#include <cstdlib>
#include <string>

namespace telemetry {

// -- contention registry ----------------------------------------------------

const char* lock_level_name(int level) noexcept {
  // Mirrors mpl::detail::LockTracker::name(); test_telemetry cross-checks
  // the two so this table cannot drift from the LockLevel enum.
  switch (level) {
    case 1: return "comm_registry";
    case 2: return "oob_barrier";
    case 3: return "mailbox";
    case 4: return "buffer_pool";
    case 5: return "stall_info";
    case 6: return "error_capture";
    case 7: return "plan_cache";
    default: return "?";
  }
}

void contention_reset() noexcept {
  for (auto& shard : detail::g_contention_shards) {
    for (int l = 0; l < kMaxLockLevels; ++l) {
      shard.acquisitions[l].store(0, std::memory_order_relaxed);
      shard.contended[l].store(0, std::memory_order_relaxed);
      shard.blocked_ns[l].store(0, std::memory_order_relaxed);
    }
  }
}

void contention_arm(bool on) noexcept {
  if (on) contention_reset();
  detail::g_contention_enabled.store(on, std::memory_order_relaxed);
}

ContentionTotals contention_totals() noexcept {
  ContentionTotals t;
  for (const auto& shard : detail::g_contention_shards) {
    for (int l = 0; l < kMaxLockLevels; ++l) {
      t.acquisitions[l] += shard.acquisitions[l].load(std::memory_order_relaxed);
      t.contended[l] += shard.contended[l].load(std::memory_order_relaxed);
      t.blocked_ns[l] += shard.blocked_ns[l].load(std::memory_order_relaxed);
    }
  }
  return t;
}

// -- configuration ----------------------------------------------------------

void TelemetryConfig::apply_env() {
  if (const char* v = std::getenv("MPL_TELEMETRY")) {
    enabled = !(v[0] == '\0' || v[0] == '0');
  }
  if (const char* v = std::getenv("MPL_OPENMETRICS")) {
    if (v[0] != '\0') openmetrics_path = v;
  }
  if (const char* v = std::getenv("MPL_OPENMETRICS_PERIOD_MS")) {
    char* end = nullptr;
    const double ms = std::strtod(v, &end);
    if (end != v && ms > 0.0) period_ms = ms;
  }
}

}  // namespace telemetry
