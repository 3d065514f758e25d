#include "mpl/fault.hpp"

#include <cstdlib>
#include <sstream>

#include "mpl/error.hpp"
#include "mpl/runtime_state.hpp"

namespace mpl {

namespace {

double parse_double(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    throw Error("MPL_FAULTS: malformed value for '" + key + "': " + value);
  }
  return v;
}

}  // namespace

void FaultConfig::merge(const std::string& spec) {
  // Tolerate whitespace around keys and values (multi-line env specs in CI
  // yaml) and empty entries from trailing commas.
  const auto trim = [](std::string s) {
    const auto b = s.find_first_not_of(" \t\n\r");
    if (b == std::string::npos) return std::string{};
    const auto e = s.find_last_not_of(" \t\n\r");
    return s.substr(b, e - b + 1);
  };
  std::istringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    item = trim(item);
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      throw Error("MPL_FAULTS: expected key=value, got '" + item + "'");
    }
    const std::string key = trim(item.substr(0, eq));
    const std::string value = trim(item.substr(eq + 1));
    if (key == "seed") {
      seed = static_cast<std::uint64_t>(
          std::strtoull(value.c_str(), nullptr, 0));
    } else if (key == "drop") {
      drop = parse_double(key, value);
    } else if (key == "retries") {
      max_retries = static_cast<int>(parse_double(key, value));
    } else if (key == "backoff") {
      backoff = parse_double(key, value);
    } else if (key == "backoff_cap") {
      backoff_cap = parse_double(key, value);
    } else if (key == "delay") {
      delay = parse_double(key, value);
    } else if (key == "delay_prob") {
      delay_prob = parse_double(key, value);
    } else if (key == "straggler_frac") {
      straggler_frac = parse_double(key, value);
    } else if (key == "straggler") {
      straggler = parse_double(key, value);
    } else if (key == "pool_miss") {
      pool_miss = parse_double(key, value);
    } else if (key == "pool_cap") {
      pool_cap = static_cast<std::size_t>(parse_double(key, value));
    } else if (key == "timeout_ms") {
      timeout_ms = parse_double(key, value);
    } else if (key == "watchdog_ms") {
      watchdog_ms = parse_double(key, value);
    } else {
      throw Error("MPL_FAULTS: unknown key '" + key + "'");
    }
  }
}

FaultConfig FaultConfig::parse(const std::string& spec) {
  FaultConfig cfg;
  cfg.merge(spec);
  return cfg;
}

void FaultConfig::apply_env() {
  if (const char* p = std::getenv("MPL_FAULTS"); p && *p) merge(p);
  if (const char* p = std::getenv("MPL_TIMEOUT_MS"); p && *p) {
    // A ceiling: a tighter timeout the program armed itself stays.
    const double env = parse_double("MPL_TIMEOUT_MS", p);
    if (timeout_ms <= 0.0 || (env > 0.0 && env < timeout_ms)) timeout_ms = env;
  }
}

namespace detail {

std::string pending_ops_dump(RuntimeState& rt) {
#ifdef MPL_CHECKED
  // New-path lock assertion: the dump takes every mailbox lock in turn, so
  // entering it with any tracked lock held is a hierarchy violation waiting
  // to happen (mailbox-while-mailbox at best, inversion at worst).
  if (LockTracker::held_count() != 0) {
    throw std::logic_error(
        "mpl[checked]: pending_ops_dump entered with a tracked lock held");
  }
#endif
  std::ostringstream os;
  os << "pending operations by rank:";
  for (auto& p : rt.procs) {
    os << '\n';
    if (p->finished()) {
      os << "  rank " << p->world_rank() << ": exited";
      continue;
    }
    p->mailbox().dump_pending(os);
    const int phase = p->recorder().phase();
    if (phase >= 0) {
      os << "; schedule point: phase " << phase;
      const int round = p->recorder().round();
      if (round >= 0) os << " round " << round;
    }
  }
  // The flight recorder rings are lock-free and tolerate concurrent
  // writers (a torn slot prints garbage for that one event, nothing more),
  // so the timeline covers every rank — including ones that already
  // exited, whose last events often explain why the others are stuck.
  os << "\nflight recorder (best-effort, last "
     << trace::Recorder::kFlightSlots << " events per rank):";
  for (auto& p : rt.procs) {
    os << "\n  rank " << p->world_rank() << ": ";
    p->recorder().dump_flight(os);
  }
  return os.str();
}

}  // namespace detail

}  // namespace mpl
