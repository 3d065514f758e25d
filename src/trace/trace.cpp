#include "trace/trace.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <ostream>

namespace trace {

const char* component_name(int c) noexcept {
  switch (static_cast<Component>(c)) {
    case Component::o: return "o";
    case Component::L: return "L";
    case Component::G: return "G";
    case Component::o_block: return "o_block";
    case Component::G_pack: return "G_pack";
    case Component::copy: return "copy";
    case Component::idle: return "idle";
    case Component::fault: return "fault";
  }
  return "?";
}

const char* event_kind_name(EventKind k) noexcept {
  // In EventKind order: the one name table for trace and flight events.
  static constexpr const char* kNames[] = {
      "send_post",   "recv_post",     "recv_complete", "copy",
      "phase",       "section_begin", "section_end",   "fault_retry",
      "wait_block",  "sched_begin",   "phase_begin",   "round",
      "sched_end",   "retry",         "pool_miss",     "wait_timeout"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(EventKind::wait_timeout) + 1);
  const auto i = static_cast<std::size_t>(k);
  return i < std::size(kNames) ? kNames[i] : "?";
}

void Recorder::dump_flight(std::ostream& os) const {
  const std::uint64_t head = flight_.recorded();
  if (head == 0) {
    os << "(no events)";
    return;
  }
  if (head > kFlightSlots) {
    os << "(" << head - kFlightSlots << " older dropped) ";
  }
  bool first = true;
  flight_.for_each(head, [&](const FlightSlot& s) {
    const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
    const std::uint64_t t = s.t_us.load(std::memory_order_relaxed);
    const auto kind = static_cast<EventKind>(meta >> 56);
    const auto a = static_cast<std::int64_t>((meta >> 28) & kFieldMask) - 1;
    const auto b = static_cast<std::int64_t>(meta & kFieldMask) - 1;
    if (!first) os << ' ';
    first = false;
    os << '+' << t << "us " << event_kind_name(kind);
    if (a >= 0) {
      os << '(' << a;
      if (b >= 0) os << ',' << b;
      os << ')';
    }
  });
}

// == Counters ================================================================

void Counters::add(const Counters& o) noexcept {
#define TRACE_ADD(T, name, json) (name) += static_cast<T>(o.name);
  TRACE_COUNTERS(TRACE_ADD)
#undef TRACE_ADD
}

// == Recorder ================================================================

/// What counting allocates. The owning rank prepends one node per
/// communicator and publishes the list head with release order; readers
/// walk from an acquired head, and a node's `next` is fixed before it is
/// published. The size and phase tallies of the metrics JSON are read only
/// after the run.
struct Recorder::Tally {
  struct Node {
    std::uint64_t ctx = 0;
    Counters c;
    Node* next = nullptr;
  };
  struct Phase {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
  };

  std::atomic<Node*> head{nullptr};
  std::deque<Node> nodes;  // storage only: others never read through it
  Node* last = nullptr;    // the owner's lookup cache
  Histograms hist;
  std::array<std::uint64_t, 64> size_pow2{};  // "le 2^b" message sizes
  std::vector<Phase> per_phase;               // schedule traffic by phase
};

Recorder::Recorder() = default;
Recorder::~Recorder() = default;

void Recorder::arm(bool counting, bool trace, std::size_t capacity,
                   bool start_tracing, Clock::time_point base) {
  base_ = base;
  tally_ = counting ? std::make_unique<Tally>() : nullptr;
  log_ = trace ? std::make_unique<Ring<Event>>(capacity) : nullptr;
  tracing_ = trace && start_tracing;
}

Counters& Recorder::comm_counters(std::uint64_t ctx) {
  Tally& t = *tally_;
  if (t.last && t.last->ctx == ctx) return t.last->c;
  Tally::Node* head = t.head.load(std::memory_order_relaxed);
  for (Tally::Node* n = head; n; n = n->next) {
    if (n->ctx == ctx) {
      t.last = n;
      return n->c;
    }
  }
  Tally::Node& n = t.nodes.emplace_back();
  n.ctx = ctx;
  n.next = head;
  t.head.store(&n, std::memory_order_release);
  t.last = &n;
  return n.c;
}

void Recorder::count_send(std::uint64_t ctx, std::uint64_t bytes,
                          std::uint32_t blocks, bool self) {
  Counters& c = comm_counters(ctx);
  ++c.msgs_sent;
  c.bytes_sent += bytes;
  if (blocks > 1) {
    ++c.packed_msgs;
    c.packed_bytes += bytes;
  } else {
    ++c.zero_copy_msgs;
    c.zero_copy_bytes += bytes;
  }
  if (self) ++c.self_msgs;
  Tally& t = *tally_;
  t.hist.msg_bytes.record(bytes);
  // Smallest b with 2^b >= bytes.
  const int b =
      bytes <= 1 ? 0 : std::min(static_cast<int>(std::bit_width(bytes - 1)), 63);
  ++t.size_pow2[static_cast<std::size_t>(b)];
  if (phase_ >= 0) {
    const auto i = static_cast<std::size_t>(phase_);
    if (t.per_phase.size() <= i) t.per_phase.resize(i + 1);
    t.per_phase[i].msgs += 1;
    t.per_phase[i].bytes += bytes;
  }
}

void Recorder::count_recv(std::uint64_t ctx, std::uint64_t bytes,
                          double idle_v) {
  Counters& c = comm_counters(ctx);
  ++c.msgs_recv;
  c.bytes_recv += bytes;
  c.wait_stall_v += idle_v;
}

void Recorder::count_copy(std::uint64_t ctx, std::uint64_t bytes) {
  Counters& c = comm_counters(ctx);
  ++c.self_copies;
  c.self_copy_bytes += bytes;
}

void Recorder::on_wait(std::uint64_t ctx, std::uint64_t full_ctx, int peer,
                       double v_now, Clock::time_point t0) {
  if (!tally_) return;
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  const double secs = static_cast<double>(ns) * 1e-9;
  Counters& c = comm_counters(ctx);
  ++c.waits;
  c.wait_stall_wall += secs;
  tally_->hist.wait_block_ns.record(ns);
  // Zero-component marker: the virtual clock does not move while parked,
  // but the wall span makes blocked time visible on the timeline.
  trace(EventKind::wait_block, [&](Event& e) {
    e.message(peer, -1, full_ctx, 0);
    e.span(v_now, v_now, e.w_end - secs);
  });
}

void Recorder::on_faults(std::uint64_t ctx, const Injected& f) {
  // Retransmits are rare enough to be flight-timeline material.
  if (f.retries > 0) flight(EventKind::retry, f.retries, f.dest);
  if (!tally_) return;
  Counters& c = comm_counters(ctx);
  c.fault_retries += static_cast<std::uint64_t>(f.retries);
  c.fault_backoff_v += f.backoff_v;
  if (f.delayed) {
    ++c.fault_delays;
    c.fault_delay_v += f.delay_v;
  }
  c.fault_straggler_v += f.straggler_v;
}

Recorder::Clock::time_point Recorder::on_sched_begin(std::uint64_t ctx,
                                                     std::int32_t ordinal) {
  if (tally_) ++comm_counters(ctx).schedule_executions;
  return flight(EventKind::sched_begin, ordinal);
}

double Recorder::on_phase_begin(std::uint64_t ctx, int p, bool comm_phase) {
  phase_ = p;
  if (tally_) ++comm_counters(ctx).phases;
  if (comm_phase) flight(EventKind::phase_begin, p);
  return wall_start();
}

void Recorder::on_round(std::uint64_t ctx, int p, int r) {
  round_ = r;
  if (tally_) ++comm_counters(ctx).rounds;
  flight(EventKind::round, p, r);
}

void Recorder::on_phase_end(std::uint64_t ctx, int p, double v0, double w0,
                            double v_now) {
  // The phase span carries no cost components itself (those live on the
  // send/recv/copy events it encloses), so attribution never counts twice.
  trace(EventKind::phase, [&](Event& e) {
    e.phase = p;
    e.ctx = ctx;
    e.span(v0, v_now, w0);
  });
  phase_ = -1;
  round_ = -1;
}

void Recorder::on_fold(std::uint64_t ctx, std::uint64_t bytes) {
  if (!tally_) return;
  Counters& c = comm_counters(ctx);
  ++c.reduce_folds;
  c.reduce_fold_bytes += bytes;
}

void Recorder::on_sched_end(std::uint64_t ctx, std::int32_t ordinal,
                            Clock::time_point t0, bool reducing) {
  const Clock::time_point t1 = flight(EventKind::sched_end, ordinal);
  if (!tally_) return;
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  tally_->hist.collective_ns.record(ns);
  if (reducing) {
    ++comm_counters(ctx).reduces;
    tally_->hist.reduce_ns.record(ns);
  }
}

int Recorder::begin_section(std::string label, double v_now) {
  section_ = next_section_++;
  trace(EventKind::section_begin, [&](Event& e) {
    e.span(v_now, v_now, e.w_end);
    e.label = std::move(label);
  });
  return section_;
}

void Recorder::end_section(double v_now) {
  trace(EventKind::section_end,
        [&](Event& e) { e.span(v_now, v_now, e.w_end); });
  section_ = -1;  // events between sections are "untraced" scope
}

Counters Recorder::totals() const {
  Counters t;
  if (!tally_) return t;
  for (const Tally::Node* n = tally_->head.load(std::memory_order_acquire);
       n; n = n->next) {
    t.add(n->c);
  }
  return t;
}

const Histograms& Recorder::histograms() const noexcept {
  return tally_->hist;
}

std::vector<Event> Recorder::snapshot() const {
  std::vector<Event> out;
  if (!log_) return out;
  out.reserve(log_->size());
  log_->for_each(log_->recorded(), [&](const Event& e) { out.push_back(e); });
  return out;
}

// == Configuration and output ================================================

void TraceConfig::apply_env() {
  if (const char* p = std::getenv("MPL_TRACE"); p && *p) chrome_path = p;
  if (const char* p = std::getenv("MPL_METRICS"); p && *p) metrics_path = p;
  if (const char* p = std::getenv("MPL_TRACE_CAPACITY"); p && *p) {
    const long long n = std::atoll(p);
    if (n > 0) capacity = static_cast<std::size_t>(n);
  }
}

namespace {

// Doubles are printed with enough digits to round-trip exactly, so the
// attribution in tools/trace_report reproduces the virtual clocks bit-wise.
void put_num(std::ostream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

void put_str(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          os << buf;
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

void put_counters(std::ostream& os, const Counters& c) {
  const char* sep = "";
#define TRACE_PUT(T, name, json)                                  \
  if (json) {                                                     \
    os << sep << "\"" #name "\": ";                                \
    put_num(os, static_cast<double>(static_cast<T>(c.name)));     \
    sep = ", ";                                                   \
  }
  TRACE_COUNTERS(TRACE_PUT)
#undef TRACE_PUT
}

}  // namespace

void Recorder::write_metrics(std::ostream& os, int rank) const {
  const Tally& t = *tally_;
  os << "{\"rank\": " << rank << ", \"dropped_events\": " << dropped()
     << ",\n \"totals\": {";
  put_counters(os, totals());
  os << "},\n \"per_comm\": [";
  std::map<std::uint64_t, const Counters*> by_ctx;  // deterministic order
  for (const Tally::Node* n = t.head.load(std::memory_order_acquire); n;
       n = n->next) {
    by_ctx.emplace(n->ctx, &n->c);
  }
  bool first = true;
  for (const auto& [ctx, c] : by_ctx) {
    if (!first) os << ", ";
    first = false;
    os << "{\"ctx\": " << ctx << ", \"counters\": {";
    put_counters(os, *c);
    os << "}}";
  }
  os << "],\n \"per_phase\": [";
  for (std::size_t i = 0; i < t.per_phase.size(); ++i) {
    if (i) os << ", ";
    os << "{\"phase\": " << i << ", \"msgs\": " << t.per_phase[i].msgs
       << ", \"bytes\": " << t.per_phase[i].bytes << "}";
  }
  os << "],\n \"msg_size_hist\": [";
  first = true;
  for (std::size_t b = 0; b < t.size_pow2.size(); ++b) {
    const std::uint64_t n = t.size_pow2[b];
    if (n == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << "{\"le_bytes\": " << (1ULL << b) << ", \"count\": " << n << "}";
  }
  os << "]}";
}

void Tracer::put_meta(std::ostream& os) const {
  os << '{';
  for (std::size_t i = 0; i < model_meta_.size(); ++i) {
    if (i) os << ", ";
    put_str(os, model_meta_[i].first);
    os << ": ";
    put_num(os, model_meta_[i].second);
  }
  os << '}';
}

void Tracer::write_chrome_json(std::ostream& os, const Ranks& ranks) const {
  // Chrome trace-event format ("JSON object format"): one "X" complete
  // event per recorded event; tid = rank, pid = section + 2 so every traced
  // section gets its own process group in Perfetto (pid 1 holds events
  // recorded outside any section). Timestamps are microseconds: virtual
  // time when the network model ran, wall time otherwise; both raw stamps
  // are always preserved in args.
  os << "{\n\"traceEvents\": [\n";
  bool first = true;
  auto emit = [&](auto&& fn) {
    if (!first) os << ",\n";
    first = false;
    fn();
  };

  std::map<int, std::string> groups;  // pid -> section label ("" = none)
  for (std::size_t rank = 0; rank < ranks.size(); ++rank) {
    for (const Event& e : ranks[rank]->snapshot()) {
      const int pid = e.section + 2;
      std::string& label = groups[pid];
      if (e.kind == EventKind::section_begin && label.empty()) label = e.label;
      emit([&] {
        const double ts = model_enabled_ ? e.v_start : e.w_start;
        const double dur = model_enabled_ ? (e.v_end - e.v_start)
                                          : (e.w_end - e.w_start);
        os << "{\"name\": \"" << event_kind_name(e.kind)
           << "\", \"cat\": \"cartcomm\", \"ph\": \"X\", \"pid\": " << pid
           << ", \"tid\": " << rank << ", \"ts\": ";
        put_num(os, ts * 1e6);
        os << ", \"dur\": ";
        put_num(os, dur * 1e6);
        os << ", \"args\": {\"kind\": \"" << event_kind_name(e.kind)
           << "\", \"peer\": " << e.peer << ", \"tag\": " << e.tag
           << ", \"phase\": " << e.phase << ", \"round\": " << e.round
           << ", \"section\": " << e.section << ", \"ctx\": " << e.ctx
           << ", \"bytes\": " << e.bytes << ", \"blocks\": " << e.blocks;
        const auto field = [&](const char* key, double v) {
          os << ", \"" << key << "\": ";
          put_num(os, v);
        };
        field("v_start", e.v_start);
        field("v_end", e.v_end);
        field("w_start", e.w_start);
        field("w_end", e.w_end);
        field("depart", e.depart);
        field("arrive_wall", e.arrive_wall);
        for (int c = 0; c < kComponents; ++c) {
          field(component_name(c), e.comp[static_cast<std::size_t>(c)]);
        }
        if (!e.label.empty()) {
          os << ", \"label\": ";
          put_str(os, e.label);
        }
        os << "}}";
      });
    }
  }
  // Metadata: track and process-group names, once per process group.
  for (const auto& [pid, label] : groups) {
    emit([&] {
      os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
         << ", \"tid\": 0, \"args\": {\"name\": ";
      put_str(os, !label.empty() ? label : pid == 1 ? "untraced" : "section");
      os << "}}";
    });
    for (std::size_t rank = 0; rank < ranks.size(); ++rank) {
      emit([&] {
        os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " << pid
           << ", \"tid\": " << rank << ", \"args\": {\"name\": \"rank "
           << rank << "\"}}";
      });
    }
  }
  os << "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {\"nprocs\": "
     << ranks.size() << ", \"clock\": \""
     << (model_enabled_ ? "virtual" : "wall") << "\", \"netConfig\": ";
  put_meta(os);
  os << ", \"dropped_events\": [";
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    if (r) os << ", ";
    os << ranks[r]->dropped();
  }
  os << "]}\n}\n";
}

void Tracer::write_metrics_json(std::ostream& os, const Ranks& ranks) const {
  os << "{\n\"kind\": \"mpl-metrics\",\n\"nprocs\": " << ranks.size()
     << ",\n\"model\": ";
  put_meta(os);
  os << ",\n\"ranks\": [\n";
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    if (r) os << ",\n";
    ranks[r]->write_metrics(os, static_cast<int>(r));
  }
  os << "\n]\n}\n";
}

std::string Tracer::flush(const Ranks& ranks) const {
  std::string err;
  if (cfg_.trace_armed()) {
    err = write_output(cfg_.chrome_path,
                       [&](std::ostream& os) { write_chrome_json(os, ranks); });
  }
  if (err.empty() && cfg_.metrics_armed()) {
    err = write_output(cfg_.metrics_path, [&](std::ostream& os) {
      write_metrics_json(os, ranks);
    });
  }
  return err.empty() ? err : "trace: " + err;
}

std::string write_output(const std::string& path,
                         const std::function<void(std::ostream&)>& body) {
  if (path == "-") {
    body(std::cout);
    return std::cout ? std::string() : "write to stdout failed";
  }
  std::ofstream os(path, std::ios::trunc);
  if (!os) return "cannot open " + path;
  body(os);
  os.flush();
  return os ? std::string() : "write failed for " + path;
}

}  // namespace trace
