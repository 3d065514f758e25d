// Tracing & metrics layer: ring-buffer semantics, env configuration,
// dual-clock consistency with the model off, trace determinism, the
// zero-perturbation guarantee, and the metrics counters.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cartcomm/cartcomm.hpp"
#include "mpl/mpl.hpp"
#include "trace/json.hpp"
#include "trace/trace.hpp"

using cartcomm::Neighborhood;
using cartcomm::Schedule;
using trace::Event;
using trace::EventKind;
using trace::Recorder;
using trace::TraceConfig;

namespace {

const mpl::Datatype kInt = mpl::Datatype::of<int>();

mpl::NetConfig test_model() {
  mpl::NetConfig c;
  c.enabled = true;
  c.o = 1e-6;
  c.L = 5e-6;
  c.G = 1e-9;
  c.copy = 2e-9;
  c.o_block = 1e-7;
  c.G_pack = 5e-10;
  return c;
}

Event make_event(std::uint64_t bytes) {
  Event e;
  e.kind = EventKind::send_post;
  e.bytes = bytes;
  return e;
}

/// A temp file path removed on destruction.
struct TempFile {
  std::string path;
  explicit TempFile(const char* name)
      : path(std::string(::testing::TempDir()) + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

/// Build the fixed 2D 5-point (von Neumann) alltoall schedule on a 3x3
/// torus, moving `m` ints per neighbor, and execute it once.
void run_5point(mpl::Comm& world, int m) {
  const std::vector<int> dims{3, 3};
  const Neighborhood nb = Neighborhood::von_neumann(2);
  auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
  const int t = nb.count();
  std::vector<int> sb(static_cast<std::size_t>(t * m), world.rank());
  std::vector<int> rb(static_cast<std::size_t>(t * m), -1);
  std::vector<cartcomm::SendBlock> sends(static_cast<std::size_t>(t));
  std::vector<cartcomm::RecvBlock> recvs(static_cast<std::size_t>(t));
  for (int i = 0; i < t; ++i) {
    sends[static_cast<std::size_t>(i)] = {&sb[static_cast<std::size_t>(i * m)],
                                          m, kInt};
    recvs[static_cast<std::size_t>(i)] = {&rb[static_cast<std::size_t>(i * m)],
                                          m, kInt};
  }
  Schedule s = cartcomm::build_alltoall_schedule(cc, sends, recvs);
  s.execute(cc.comm());
}

}  // namespace

// ---------------------------------------------------------------------------
// Ring buffer
// ---------------------------------------------------------------------------

TEST(TraceRing, DropOldestKeepsNewestAndCounts) {
  Recorder rt;
  rt.arm(/*counting=*/false, /*trace=*/true, /*capacity=*/4,
         /*start_tracing=*/true);
  ASSERT_TRUE(rt.tracing());
  for (std::uint64_t i = 0; i < 10; ++i) rt.record(make_event(i));
  EXPECT_EQ(rt.event_count(), 4u);
  EXPECT_EQ(rt.dropped(), 6u);
  const std::vector<Event> events = rt.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].bytes, 6 + i) << "oldest-first order after wrap";
  }
}

TEST(TraceRing, ZeroCapacityClampsToOne) {
  Recorder rt;
  rt.arm(false, true, 0, true);
  rt.record(make_event(1));
  rt.record(make_event(2));
  EXPECT_EQ(rt.capacity(), 1u);
  EXPECT_EQ(rt.event_count(), 1u);
  EXPECT_EQ(rt.dropped(), 1u);
  EXPECT_EQ(rt.snapshot().at(0).bytes, 2u);
}

TEST(TraceRing, UnarmedRecordsNothing) {
  Recorder rt;
  rt.arm(/*counting=*/false, /*trace=*/false, 8, true);
  EXPECT_FALSE(rt.tracing());
  EXPECT_FALSE(rt.active());
  rt.record(make_event(1));
  rt.set_tracing(true);  // must stay off: tracing was never armed
  rt.record(make_event(2));
  EXPECT_EQ(rt.event_count(), 0u);
  EXPECT_EQ(rt.dropped(), 0u);
}

TEST(TraceRing, SectionScopeResetsBetweenSections) {
  Recorder rt;
  rt.arm(false, true, 16, true);
  EXPECT_EQ(rt.section(), -1);
  EXPECT_EQ(rt.begin_section("a", 0.0), 0);
  rt.record(make_event(1));
  rt.end_section(1.0);
  EXPECT_EQ(rt.section(), -1);
  rt.record(make_event(2));  // between sections: untraced scope
  EXPECT_EQ(rt.begin_section("b", 2.0), 1);
  rt.record(make_event(3));
  rt.end_section(3.0);

  const std::vector<Event> events = rt.snapshot();
  ASSERT_EQ(events.size(), 7u);
  EXPECT_EQ(events[1].section, 0);   // inside "a"
  EXPECT_EQ(events[3].section, -1);  // between sections
  EXPECT_EQ(events[5].section, 1);   // inside "b"
  EXPECT_EQ(events[0].label, "a");
  EXPECT_EQ(events[4].label, "b");
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

TEST(TraceConfigTest, DefaultsDisarmed) {
  TraceConfig cfg;
  EXPECT_FALSE(cfg.trace_armed());
  EXPECT_FALSE(cfg.metrics_armed());
  EXPECT_EQ(cfg.capacity, std::size_t{1} << 16);
  EXPECT_TRUE(cfg.start_enabled);
}

TEST(TraceConfigTest, ApplyEnvOverrides) {
  ::setenv("MPL_TRACE", "/tmp/t.json", 1);
  ::setenv("MPL_METRICS", "-", 1);
  ::setenv("MPL_TRACE_CAPACITY", "128", 1);
  TraceConfig cfg;
  cfg.apply_env();
  ::unsetenv("MPL_TRACE");
  ::unsetenv("MPL_METRICS");
  ::unsetenv("MPL_TRACE_CAPACITY");
  EXPECT_EQ(cfg.chrome_path, "/tmp/t.json");
  EXPECT_EQ(cfg.metrics_path, "-");
  EXPECT_EQ(cfg.capacity, 128u);
  EXPECT_TRUE(cfg.trace_armed());
  EXPECT_TRUE(cfg.metrics_armed());
}

// ---------------------------------------------------------------------------
// Dual clocks with the model off
// ---------------------------------------------------------------------------

TEST(TraceRun, WallClockModeWhenModelOff) {
  TempFile out("trace_walloff.json");
  mpl::RunOptions opts;
  opts.net = mpl::NetConfig::off();
  opts.trace.chrome_path = out.path;
  mpl::run(
      9, [](mpl::Comm& world) { run_5point(world, 1); }, opts);

  const trace::json::Value doc = trace::json::parse_file(out.path);
  EXPECT_EQ(doc.at("otherData").str_or("clock", ""), "wall");
  int leaves = 0;
  for (const auto& ev : doc.at("traceEvents").as_array()) {
    if (ev.str_or("ph", "") != "X") continue;
    const auto& args = ev.at("args");
    // Virtual clocks never advance with the model off; wall interval must
    // be well-formed and events must carry no virtual cost attribution.
    EXPECT_EQ(args.num_or("v_start", -1), 0.0);
    EXPECT_EQ(args.num_or("v_end", -1), 0.0);
    EXPECT_GE(args.num_or("w_start", -1), 0.0);
    EXPECT_GE(args.num_or("w_end", -1), args.num_or("w_start", -1));
    for (int c = 0; c < trace::kComponents; ++c) {
      EXPECT_EQ(args.num_or(trace::component_name(c), -1), 0.0);
    }
    ++leaves;
  }
  EXPECT_GT(leaves, 0);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

namespace {

void run_traced_5point(const std::string& path) {
  mpl::RunOptions opts;
  opts.net = test_model();
  opts.trace.chrome_path = path;
  mpl::run(
      9, [](mpl::Comm& world) { run_5point(world, 2); }, opts);
}

}  // namespace

TEST(TraceRun, DeterministicTraceForFixedSchedule) {
  TempFile a("trace_det_a.json");
  TempFile b("trace_det_b.json");
  run_traced_5point(a.path);
  run_traced_5point(b.path);

  const auto ea = trace::json::parse_file(a.path).at("traceEvents").as_array();
  const auto eb = trace::json::parse_file(b.path).at("traceEvents").as_array();
  ASSERT_EQ(ea.size(), eb.size());
  ASSERT_GT(ea.size(), 9u * 4u);  // at least one event per rank per round
  // Everything except the wall-clock fields must match run for run: the
  // virtual timeline, scopes, partners, sizes and the cost attribution.
  static const char* const kVirtualFields[] = {
      "peer",  "tag",    "phase",  "round",   "section", "ctx",
      "bytes", "blocks", "v_start", "v_end",  "depart",  "o",
      "L",     "G",      "o_block", "G_pack", "copy",    "idle",
      "fault"};
  for (std::size_t i = 0; i < ea.size(); ++i) {
    if (ea[i].str_or("ph", "") != "X") {
      EXPECT_EQ(eb[i].str_or("ph", ""), ea[i].str_or("ph", ""));
      continue;
    }
    const auto& aa = ea[i].at("args");
    const auto& ab = eb[i].at("args");
    EXPECT_EQ(aa.str_or("kind", "?"), ab.str_or("kind", "!")) << "event " << i;
    for (const char* f : kVirtualFields) {
      EXPECT_EQ(aa.num_or(f, -1), ab.num_or(f, -2))
          << "event " << i << " field " << f;
    }
  }
}

TEST(TraceRun, TracingDoesNotPerturbVirtualClock) {
  auto vclocks = [](bool traced) {
    TempFile out("trace_perturb.json");
    std::vector<double> v(9, -1.0);
    mpl::RunOptions opts;
    opts.net = test_model();
    if (traced) {
      opts.trace.chrome_path = out.path;
      opts.trace.metrics_path = out.path + ".metrics";
    }
    mpl::run(
        9,
        [&](mpl::Comm& world) {
          run_5point(world, 2);
          v[static_cast<std::size_t>(world.rank())] = world.vclock();
        },
        opts);
    if (traced) std::remove((out.path + ".metrics").c_str());
    return v;
  };
  const std::vector<double> untraced = vclocks(false);
  const std::vector<double> traced = vclocks(true);
  for (std::size_t r = 0; r < untraced.size(); ++r) {
    EXPECT_GT(untraced[r], 0.0);
    // Bit-identical, not approximately equal: instrumentation must never
    // touch the NetClock arithmetic.
    EXPECT_EQ(untraced[r], traced[r]) << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(TraceRun, ScheduleExecutionCounters) {
  TempFile out("trace_metrics.json");
  mpl::RunOptions opts;
  opts.net = test_model();
  opts.trace.metrics_path = out.path;
  mpl::run(
      9,
      [](mpl::Comm& world) {
        const std::vector<int> dims{3, 3};
        const Neighborhood nb = Neighborhood::von_neumann(2);
        auto cc = cartcomm::cart_neighborhood_create(world, dims, {}, nb);
        const int t = nb.count();
        std::vector<int> sb(static_cast<std::size_t>(t), world.rank());
        std::vector<int> rb(static_cast<std::size_t>(t), -1);
        std::vector<cartcomm::SendBlock> sends(static_cast<std::size_t>(t));
        std::vector<cartcomm::RecvBlock> recvs(static_cast<std::size_t>(t));
        for (int i = 0; i < t; ++i) {
          sends[static_cast<std::size_t>(i)] = {
              &sb[static_cast<std::size_t>(i)], 1, kInt};
          recvs[static_cast<std::size_t>(i)] = {
              &rb[static_cast<std::size_t>(i)], 1, kInt};
        }
        Schedule s = cartcomm::build_alltoall_schedule(cc, sends, recvs);

        const trace::Counters* live = cc.comm().metrics();
        ASSERT_NE(live, nullptr);
        const trace::Counters before = *live;  // creation traffic excluded
        s.execute(cc.comm());
        const trace::Counters& after = *live;

        // On a 3x3 torus the 5-point alltoall is 4 rounds in 2 phases, one
        // 4-byte message per round, no local copies.
        EXPECT_EQ(after.schedule_executions - before.schedule_executions, 1u);
        EXPECT_EQ(after.phases - before.phases,
                  static_cast<std::uint64_t>(s.phases()));
        EXPECT_EQ(after.rounds - before.rounds,
                  static_cast<std::uint64_t>(s.rounds()));
        EXPECT_EQ(after.msgs_sent - before.msgs_sent, 4u);
        EXPECT_EQ(after.bytes_sent - before.bytes_sent, 16u);
        EXPECT_EQ(after.msgs_recv - before.msgs_recv, 4u);
        EXPECT_EQ(after.self_copies, before.self_copies);
      },
      opts);
}

TEST(TraceRun, MetricsNullWhenDisarmed) {
  mpl::run(2, [](mpl::Comm& world) {
    EXPECT_EQ(world.metrics(), nullptr);
    EXPECT_FALSE(world.trace_active());
    EXPECT_EQ(world.trace_section_begin("x"), -1);
    world.trace_section_end();  // must be a harmless no-op
  });
}

// ---------------------------------------------------------------------------
// Tracing does not switch the receive path
// ---------------------------------------------------------------------------

TEST(TraceRun, TracedFastPathRecvIsCountedAndTraced) {
  // Model off, tracing and metrics armed: a blocking recv whose message is
  // already queued takes the no-request fast path (so no recv_post event),
  // and still reports through the seam: one recv_complete, one count.
  TempFile out("trace_fastpath.json");
  mpl::RunOptions opts;
  opts.net = mpl::NetConfig::off();
  opts.trace.chrome_path = out.path;
  opts.trace.metrics_path = out.path + ".metrics";
  constexpr int kTag = 42;
  constexpr int kCount = 8;
  mpl::run(
      2,
      [&](mpl::Comm& world) {
        std::vector<int> buf(kCount, world.rank());
        if (world.rank() == 1) world.send(buf.data(), kCount, kInt, 0, kTag);
        world.hard_sync();  // the eager send is queued at rank 0 by now
        if (world.rank() == 0) {
          const mpl::Status st = world.recv(buf.data(), kCount, kInt, 1, kTag);
          EXPECT_EQ(st.bytes, kCount * sizeof(int));
          EXPECT_EQ(buf[0], 1);
          const trace::Counters* c = world.metrics();
          ASSERT_NE(c, nullptr);
          EXPECT_EQ(c->msgs_recv, 1u);
          EXPECT_EQ(c->bytes_recv, kCount * sizeof(int));
        }
      },
      opts);
  std::remove((out.path + ".metrics").c_str());

  const trace::json::Value doc = trace::json::parse_file(out.path);
  int posts = 0;
  int completes = 0;
  for (const auto& ev : doc.at("traceEvents").as_array()) {
    if (ev.str_or("ph", "") != "X" || ev.num_or("tid", -1) != 0) continue;
    const auto& args = ev.at("args");
    if (args.num_or("tag", -1) != kTag) continue;
    const std::string kind = args.str_or("kind", "");
    if (kind == "recv_post") ++posts;
    if (kind == "recv_complete") {
      ++completes;
      EXPECT_EQ(args.num_or("peer", -1), 1.0);
      EXPECT_EQ(args.num_or("bytes", -1), kCount * sizeof(int));
      EXPECT_GE(args.num_or("w_end", -1), args.num_or("w_start", 0));
    }
  }
  EXPECT_EQ(posts, 0) << "a traced run must take the same fast path";
  EXPECT_EQ(completes, 1);
}
