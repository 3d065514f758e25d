// cartbench — the repository benchmark program.
//
//   cartbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans FILE] [--corrupt]
//
// Runs one workload on 4 simulated ranks (a 2x2 periodic grid) and prints
// one JSON line. With --trace 0 it reports the end-to-end metrics, with
// --trace 1 the per-layer metrics of a separate traced run. Either way it
// checks every op's result, makes two deterministic LogGP passes whose
// model times must agree bit for bit, and (halo_step) compares the field
// with a single-rank run of the same global grid. --corrupt flips one
// received block on rank 0 so the oracle can be seen to fire.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "cartcomm/plan.hpp"
#include "mpl/mpl.hpp"
#include "telemetry/plan_cache.hpp"

extern char** environ;

namespace cartbench {
namespace {

constexpr int kProcs = 4;
constexpr int kSetups = 101;            // setup_s is the median of these
constexpr long kMaxTracedOps = 30000;   // bounds the span buffers
constexpr int kSpansPerOp = 8;
constexpr int kSlices = 20;             // rates and p50 are slice medians
constexpr double kWarmupS = 0.5;        // untimed ops before each timed phase
constexpr double kUncoveredBound = 0.10;  // op time not covered by child spans

/// Pin the calling rank thread to its own CPU (one rank per core) when
/// the host has a CPU for every rank; otherwise leave placement alone.
void pin_rank(int rank, int nprocs) {
  const long ncpu = sysconf(_SC_NPROCESSORS_ONLN);
  if (ncpu < nprocs) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(rank, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// User+system CPU seconds of `who` (RUSAGE_SELF or RUSAGE_THREAD).
double cpu_s(int who) {
  rusage u{};
  getrusage(who, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

/// A timed phase: every rank runs ops in batches; between batches the
/// ranks meet at a host barrier (outside every op) whose completion folds
/// the batch into per-op samples and decides, once for all ranks, whether
/// to stop. Ops are never synchronised inside a batch.
class Phase {
 public:
  static constexpr int kBatch = 32;

  /// Ops of the first `warmup_s` seconds are run and checked but not
  /// recorded.
  Phase(int nprocs, double warmup_s, double seconds, long first_op, long max_ops)
      : warmup_s_(warmup_s),
        seconds_(seconds),
        first_(first_op),
        max_ops_(max_ops),
        batch_(static_cast<std::size_t>(nprocs)),
        bytes_(static_cast<std::size_t>(nprocs), 0.0),
        cpu_(static_cast<std::size_t>(nprocs), 0.0),
        bar_(nprocs, Done{this}) {}

  void run(int rank, Workload& w, SpanLog* log, long& fails) {
    cpu_[static_cast<std::size_t>(rank)] = cpu_s(RUSAGE_THREAD);
    bar_.arrive_and_wait();
    OpTime* mine = batch_[static_cast<std::size_t>(rank)].data();
    for (;;) {
      const long base = first_ + done_;
      for (int j = 0; j < kBatch; ++j) {
        w.stage(base + j, log);
        mine[j] = w.op(base + j, log, fails);
        bytes_[static_cast<std::size_t>(rank)] += w.payload_bytes(base + j);
      }
      cpu_[static_cast<std::size_t>(rank)] = cpu_s(RUSAGE_THREAD);
      bar_.arrive_and_wait();
      if (stop_) return;
    }
  }

  /// Timed ops, and all ops run (warm-up included).
  [[nodiscard]] long ops() const { return done_ - warm_ops_; }
  [[nodiscard]] long ops_run() const { return done_; }
  [[nodiscard]] long next_op() const { return first_ + done_; }
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }
  [[nodiscard]] const std::vector<double>& skews() const { return skews_; }

  /// Rates and median op time of `n` consecutive, equally long (in
  /// batches) slices of the phase. The reported figures are medians over
  /// the slices, so bursts of host noise in a few slices do not move them.
  struct Slice {
    double ops_per_s, cpu_us_per_op, payload_mb_s, p50_us;
  };
  [[nodiscard]] std::vector<Slice> slices(int n) const {
    std::vector<Slice> out;
    const std::size_t batches = marks_.size() - 1;
    for (int i = 0; i < n; ++i) {
      const std::size_t b0 = batches * static_cast<std::size_t>(i) / static_cast<std::size_t>(n);
      const std::size_t b1 = batches * static_cast<std::size_t>(i + 1) / static_cast<std::size_t>(n);
      if (b1 == b0) continue;
      const Mark& a = marks_[b0];
      const Mark& b = marks_[b1];
      const double ops = static_cast<double>((b1 - b0) * kBatch);
      const double wall = (b.t - a.t) * 1e-6;
      const std::vector<double> v(
          samples_.begin() + static_cast<std::ptrdiff_t>(b0 * kBatch),
          samples_.begin() + static_cast<std::ptrdiff_t>(b1 * kBatch));
      out.push_back({ops / wall, (b.cpu - a.cpu) * 1e6 / ops,
                     (b.bytes - a.bytes) / wall * 1e-6, median(v)});
    }
    return out;
  }
  [[nodiscard]] const telemetry::PlanCacheTotals& totals_at_start() const {
    return pc0_;
  }
  [[nodiscard]] const telemetry::PlanCacheTotals& totals_at_stop() const {
    return pc1_;
  }

 private:
  struct Done {
    Phase* p;
    void operator()() noexcept { p->batch_done(); }
  };

  void batch_done() noexcept {
    const double now = now_us();
    double bytes = 0.0, cpu = 0.0;
    for (const double x : bytes_) bytes += x;
    for (const double x : cpu_) cpu += x;
    if (!started_) {
      started_ = true;
      t0_ = now;
      warming_ = warmup_s_ > 0.0;
      pc0_ = telemetry::plan_cache_totals();
      if (!warming_) marks_.push_back({now, cpu, bytes});
      return;
    }
    if (warming_) {
      done_ += kBatch;
      warm_ops_ += kBatch;
      if ((now - t0_) * 1e-6 >= warmup_s_) {
        warming_ = false;
        t0_ = now;
        marks_.push_back({now, cpu, bytes});
      }
      return;
    }
    marks_.push_back({now, cpu, bytes});
    for (int j = 0; j < kBatch; ++j) {
      double dur = 0.0, lo = 1e300, hi = -1e300;
      for (const auto& b : batch_) {
        dur = std::max(dur, b[static_cast<std::size_t>(j)].dur);
        lo = std::min(lo, b[static_cast<std::size_t>(j)].entry);
        hi = std::max(hi, b[static_cast<std::size_t>(j)].entry);
      }
      samples_.push_back(dur);
      skews_.push_back(hi - lo);
    }
    done_ += kBatch;
    if ((now - t0_) * 1e-6 >= seconds_ || done_ + kBatch > max_ops_) {
      stop_ = true;
      pc1_ = telemetry::plan_cache_totals();
    }
  }

  double warmup_s_;
  double seconds_;
  long first_, max_ops_;
  std::vector<std::array<OpTime, kBatch>> batch_;
  std::vector<double> bytes_;
  std::vector<double> cpu_;  // each rank thread's CPU time at its last batch end
  std::vector<double> samples_, skews_;
  long done_ = 0;
  long warm_ops_ = 0;
  bool started_ = false, warming_ = false, stop_ = false;
  struct Mark {
    double t, cpu, bytes;  // after each batch (the first: phase start)
  };
  std::vector<Mark> marks_;
  double t0_ = 0.0;
  telemetry::PlanCacheTotals pc0_, pc1_;
  std::barrier<Done> bar_;
};

struct Tally {
  long attempted = 0;
  long failed = 0;
};

long sum(const std::vector<long>& v) {
  long s = 0;
  for (const long x : v) s += x;
  return s;
}

double max_of(const std::vector<double>& v) {
  return *std::max_element(v.begin(), v.end());
}

// -- fixed-count passes ------------------------------------------------------

struct PassResult {
  double model_us = 0.0;         // max over ranks of virtual time per op
  double op_us = kNaN;           // median rank-0 op time (timed passes)
  std::vector<double> field;     // halo_step global field after the pass
};

/// Run `ops` checked ops after setup. With `net` the LogGP model is on and
/// the result carries the virtual time per op.
PassResult fixed_pass(const Params& p, long ops, const mpl::NetConfig& net,
                      Tally& tally) {
  Shared sh(p.nprocs);
  if (p.workload == "halo_step") {
    sh.field.assign(static_cast<std::size_t>(p.dims[0] * p.halo_n) *
                        static_cast<std::size_t>(p.dims[1] * p.halo_n),
                    0.0);
  }
  std::vector<double> vclock(static_cast<std::size_t>(p.nprocs), 0.0);
  std::vector<long> fails(static_cast<std::size_t>(p.nprocs), 0);
  std::vector<double> times(static_cast<std::size_t>(ops), 0.0);
  int warmups = 0;
  mpl::RunOptions opts;
  opts.net = net;
  mpl::run(
      p.nprocs,
      [&](mpl::Comm& world) {
        const std::size_t r = static_cast<std::size_t>(world.rank());
        pin_rank(world.rank(), p.nprocs);
        std::unique_ptr<Workload> w = make_workload(p, sh, world.rank());
        w->setup(world, nullptr, fails[r]);
        if (r == 0) warmups = w->warmup_ops();
        world.vclock_reset_sync();
        for (long k = 0; k < ops; ++k) {
          w->stage(k, nullptr);
          const OpTime t = w->op(k, nullptr, fails[r]);
          if (r == 0) times[static_cast<std::size_t>(k)] = t.dur;
        }
        vclock[r] = world.vclock();
        w->snapshot();
      },
      opts);
  tally.attempted += (ops + warmups) * p.nprocs;
  tally.failed += sum(fails);
  PassResult res;
  res.model_us = max_of(vclock) / static_cast<double>(ops) * 1e6;
  res.op_us = median(times);
  res.field = std::move(sh.field);
  return res;
}

long model_ops(const std::string& workload) {
  if (workload == "halo_step") return 32;
  if (workload == "bulk_exchange") return 8;
  return 30;
}

/// The same workload on one rank (a 1x1 periodic grid: every neighbour is
/// the rank itself) over the same global problem.
Params serial_params(const Params& p) {
  Params s = p;
  s.nprocs = 1;
  s.dims = {1, 1};
  s.halo_n = p.halo_n * p.dims[0];
  s.corrupt_op = std::numeric_limits<long>::min();
  return s;
}

/// Two LogGP passes (bit-identical model time required) and, for
/// halo_step, the single-rank reference field. Returns model_us.
double deterministic_checks(const Params& p, Tally& tally) {
  const long k = model_ops(p.workload);
  const PassResult a = fixed_pass(p, k, mpl::NetConfig::omnipath(), tally);
  const PassResult b = fixed_pass(p, k, mpl::NetConfig::omnipath(), tally);
  if (std::memcmp(&a.model_us, &b.model_us, sizeof(double)) != 0) {
    std::fprintf(stderr, "cartbench: model_us differs between passes (%.17g vs %.17g)\n",
                 a.model_us, b.model_us);
    ++tally.failed;
  }
  if (p.workload == "halo_step") {
    const PassResult s = fixed_pass(serial_params(p), k, mpl::NetConfig::off(), tally);
    const bool same = a.field.size() == s.field.size() && a.field == b.field &&
                      std::memcmp(a.field.data(), s.field.data(),
                                  a.field.size() * sizeof(double)) == 0;
    if (!same) {
      std::fprintf(stderr, "cartbench: halo field differs from the single-rank run\n");
      ++tally.failed;
    }
  }
  return a.model_us;
}

// -- output ------------------------------------------------------------------

class Json {
 public:
  void metric(const char* name, double v, const char* unit) {
    std::string& m = open(metrics_, name);
    m += "{\"value\": ";
    m += num(v);
    m += ", \"unit\": \"";
    m += unit;
    m += "\"}";
  }
  void info(const char* name, double v) { open(info_, name) += num(v); }
  void info(const char* name, const char* v) {
    std::string& i = open(info_, name);
    i += '"';
    i += v;
    i += '"';
  }
  void print(const Params& p, int trace, const Tally& t) const {
    std::printf(
        "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
        "\"attempted\": %ld, \"failed\": %ld, \"metrics\": {%s}, "
        "\"info\": {%s}}\n",
        p.workload.c_str(), static_cast<unsigned long long>(p.seed), trace,
        t.attempted, t.failed, metrics_.c_str(), info_.c_str());
  }

 private:
  static std::string& open(std::string& s, const char* name) {
    if (!s.empty()) s += ", ";
    s += '"';
    s += name;
    s += "\": ";
    return s;
  }
  static std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char b[64];
    std::snprintf(b, sizeof b, "%.9g", v);
    return b;
  }
  std::string metrics_, info_;
};

// -- the two runs ------------------------------------------------------------

void untraced_run(const Params& p, double seconds, Json& out, Tally& tally) {
  std::vector<double> setups;
  std::optional<Phase> phase;
  int warmups = 0;
  for (int rep = 0; rep < kSetups; ++rep) {
    const bool timed = rep == kSetups - 1;
    cartcomm::plan_cache_clear();  // every setup starts cold
    Shared sh(p.nprocs);
    std::vector<double> ready(static_cast<std::size_t>(p.nprocs), 0.0);
    std::vector<long> fails(static_cast<std::size_t>(p.nprocs), 0);
    if (timed) phase.emplace(p.nprocs, kWarmupS, seconds, 0, LONG_MAX);
    const double entry = now_us();
    mpl::run(p.nprocs, [&](mpl::Comm& world) {
      const std::size_t r = static_cast<std::size_t>(world.rank());
      pin_rank(world.rank(), p.nprocs);
      std::unique_ptr<Workload> w = make_workload(p, sh, world.rank());
      w->setup(world, nullptr, fails[r]);
      ready[r] = now_us();
      if (r == 0) warmups = w->warmup_ops();
      if (timed) phase->run(world.rank(), *w, nullptr, fails[r]);
    });
    setups.push_back((max_of(ready) - entry) * 1e-6);
    tally.attempted += static_cast<long>(warmups) * p.nprocs;
    tally.failed += sum(fails);
  }
  const double ops = static_cast<double>(phase->ops());
  const std::vector<Phase::Slice> sl = phase->slices(kSlices);
  auto slice_median = [&](double Phase::Slice::*f) {
    std::vector<double> v;
    for (const Phase::Slice& s : sl) v.push_back(s.*f);
    return median(std::move(v));
  };
  tally.attempted += phase->ops_run() * p.nprocs;
  const double model_us = deterministic_checks(p, tally);
  rusage u{};
  getrusage(RUSAGE_SELF, &u);

  out.metric("setup_s", median(setups), "s");
  out.metric("op_us_p50", slice_median(&Phase::Slice::p50_us), "us");
  out.metric("op_us_p95", quantile(phase->samples(), 0.95), "us");
  out.metric("op_us_p99", quantile(phase->samples(), 0.99), "us");
  out.metric("ops_per_s", slice_median(&Phase::Slice::ops_per_s), "1/s");
  out.metric("payload_mb_s", slice_median(&Phase::Slice::payload_mb_s), "MB/s");
  out.metric("cpu_us_per_op", slice_median(&Phase::Slice::cpu_us_per_op), "us");
  out.metric("rss_mb", static_cast<double>(u.ru_maxrss) / 1024.0, "MB");
  out.info("op_samples", ops);
  out.info("model_us", model_us);
  out.info("entry_skew_us_p50", quantile(phase->skews(), 0.5));
  out.info("setup_s_min", *std::min_element(setups.begin(), setups.end()));
  out.info("setup_s_max", max_of(setups));
}

void traced_run(const Params& p, double seconds, const std::string& spans_path,
                Json& out, Tally& tally) {
  cartcomm::plan_cache_clear();
  const telemetry::PlanCacheTotals cold = telemetry::plan_cache_totals();
  Shared sh(p.nprocs);
  const std::size_t np = static_cast<std::size_t>(p.nprocs);
  std::vector<SpanLog> logs;
  for (int r = 0; r < p.nprocs; ++r) {
    logs.emplace_back(r, static_cast<std::size_t>(kMaxTracedOps * kSpansPerOp + 64));
  }
  std::vector<double> body_start(np, 0.0);
  std::vector<long> fails(np, 0);
  std::vector<Probes> probes(np);
  Phase plain(p.nprocs, kWarmupS, seconds * 0.4, 0, LONG_MAX);
  std::optional<Phase> traced;
  std::barrier<> sync(p.nprocs);
  Counts counts;
  int keys = 0, warmups = 0;
  double payload = 0.0;  // mean bytes one rank receives per op

  const double entry = now_us();
  mpl::run(p.nprocs, [&](mpl::Comm& world) {
    const std::size_t r = static_cast<std::size_t>(world.rank());
    body_start[r] = now_us();
    pin_rank(world.rank(), p.nprocs);
    std::unique_ptr<Workload> w = make_workload(p, sh, world.rank());
    w->setup(world, &logs[r], fails[r]);
    plain.run(world.rank(), *w, nullptr, fails[r]);
    if (r == 0) {
      // Keep the split/undivided alternation aligned with the call cycle.
      const long cycle = 2L * w->kinds();
      traced.emplace(p.nprocs, 0.0, seconds * 0.45,
                     (plain.next_op() + cycle - 1) / cycle * cycle, kMaxTracedOps);
      counts = w->counts();
      keys = w->plan_keys();
      warmups = w->warmup_ops();
      for (int k = 0; k < w->kinds(); ++k) payload += w->payload_bytes(k);
      payload /= w->kinds();
    }
    sync.arrive_and_wait();
    traced->run(world.rank(), *w, &logs[r], fails[r]);
    w->probe(probes[r]);
  });
  tally.attempted += (warmups + plain.ops_run() + traced->ops_run()) * p.nprocs;
  tally.failed += sum(fails);

  if (!spans_path.empty() && !write_spans(spans_path, logs)) {
    std::fprintf(stderr, "cartbench: cannot write %s\n", spans_path.c_str());
  }
  // The analysis needs only the op cycle, which a fresh instance knows.
  const std::unique_ptr<Workload> shape = make_workload(p, sh, 0);
  const TraceSummary ts = analyse(logs, *shape);
  if (ts.nesting_errors > 0 || !(ts.uncovered_share <= kUncoveredBound)) {
    std::fprintf(stderr,
                 "cartbench: spans do not account for the ops "
                 "(%ld nesting errors, uncovered share %.3f > %.2f)\n",
                 ts.nesting_errors, ts.uncovered_share, kUncoveredBound);
    ++tally.failed;
  }

  const double model_us = deterministic_checks(p, tally);
  const Params sp = serial_params(p);
  const long serial_ops = p.workload == "halo_step" ? 300
                          : p.workload == "bulk_exchange" ? 40 : 600;
  const PassResult serial = fixed_pass(sp, serial_ops, mpl::NetConfig::off(), tally);
  const double serial_step =
      p.workload == "halo_step" ? serial.op_us : serial.op_us * p.nprocs;
  const double plain_p50 = quantile(plain.samples(), 0.5);

  auto probe_median = [&](double Probes::*f) {
    std::vector<double> v;
    for (const Probes& pr : probes) v.push_back(pr.*f);
    return median(std::move(v));
  };
  auto either = [](double traced_value, double probed) {
    return std::isnan(traced_value) ? probed : traced_value;
  };
  double create_ms = 0.0;
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      if (s.name == Name::create) create_ms = std::max(create_ms, (s.t1 - s.t0) * 1e-3);
    }
  }
  const telemetry::PlanCacheTotals& a = traced->totals_at_start();
  const telemetry::PlanCacheTotals& b = traced->totals_at_stop();
  const double setup_misses =
      static_cast<double>(plain.totals_at_start().misses - cold.misses);
  const double lookups =
      static_cast<double>((b.hits - a.hits) + (b.misses - a.misses));

  out.metric("mpl.runtime.spawn_ms", (max_of(body_start) - entry) * 1e-3, "ms");
  out.metric("cartcomm.create_ms", create_ms, "ms");
  out.metric("cartcomm.plan.compile_ms", probe_median(&Probes::compile_ms), "ms");
  out.metric("cartcomm.plan.compiles_per_key", keys ? setup_misses / keys : 0.0, "ratio");
  out.metric("cartcomm.plan.lookup_us", probe_median(&Probes::lookup_us), "us");
  out.metric("cartcomm.plan.hit_ratio",
             lookups > 0 ? static_cast<double>(b.hits - a.hits) / lookups : 0.0, "ratio");
  out.metric("cartcomm.bind_us", either(ts.bind_us, probe_median(&Probes::bind_us)), "us");
  out.metric("cartcomm.schedule.start_us", ts.start_us, "us");
  out.metric("cartcomm.schedule.wait_us", ts.wait_us, "us");
  out.metric("cartcomm.schedule.rounds", counts.rounds, "count");
  out.metric("cartcomm.schedule.msgs_per_op", counts.msgs, "count");
  out.metric("cartcomm.schedule.send_bytes_per_op", counts.send_bytes, "B");
  out.metric("cartcomm.schedule.temp_bytes", counts.temp_bytes, "B");
  out.metric("cartcomm.reduce_us",
             shape->kinds() == 3 ? ts.undivided_kind_us[2] : probe_median(&Probes::reduce_us),
             "us");
  out.metric("mpl.datatype.pack_gb_s", probe_median(&Probes::pack_gb_s), "GB/s");
  out.metric("mpl.collectives.allreduce_us",
             either(ts.allreduce_us, probe_median(&Probes::allreduce_us)), "us");
  out.metric("mpl.transport.entry_skew_us", ts.entry_skew_us, "us");
  out.metric("mpl.transport.copy_gb_s", payload / ((ts.start_us + ts.wait_us) * 1e3), "GB/s");
  out.metric("app.compute_us", ts.app_us, "us");
  out.metric("app.comm_share", ts.comm_share, "ratio");
  out.metric("app.serial_step_us", serial_step, "us");
  out.metric("app.parallel_eff", serial_step / (p.nprocs * plain_p50), "ratio");
  out.metric("bench.trace.overhead", ts.op_p50_us / plain_p50 - 1.0, "ratio");
  out.metric("bench.unattributed_us", ts.unattributed_us, "us");
  out.info("traced_ops", static_cast<double>(ts.ops));
  out.info("untraced_op_us_p50", plain_p50);
  out.info("uncovered_share", ts.uncovered_share);
  out.info("model_us", model_us);
}

// -- guards ------------------------------------------------------------------

/// Knobs that change the measured path (cache policy, faults, tracing,
/// telemetry). A run with any of them set is not comparable.
const char* path_knob() {
  static const char* const kPrefixes[] = {
      "MPL_PLAN_CACHE", "MPL_FAULTS", "MPL_TIMEOUT_MS", "MPL_TRACE",
      "MPL_METRICS",    "MPL_TELEMETRY", "MPL_OPENMETRICS"};
  for (char** e = environ; *e; ++e) {
    for (const char* pre : kPrefixes) {
      if (std::strncmp(*e, pre, std::strlen(pre)) == 0) return *e;
    }
  }
  return nullptr;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || CARTBENCH_SANITIZED
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#ifdef MPL_CHECKED
constexpr bool kChecked = true;
#else
constexpr bool kChecked = false;
#endif
#ifdef __OPTIMIZE__
constexpr bool kOptimised = true;
#else
constexpr bool kOptimised = false;
#endif

std::string build_refusal() {
  std::string why;
  if (!kOptimised) why += " unoptimised";
  if (kSanitized) why += " sanitized";
  if (kChecked) why += " MPL_CHECKED";
  return why;
}

int usage() {
  std::fprintf(stderr,
               "usage: cartbench --workload halo_step|call_repeat|call_rotate|"
               "bulk_exchange --seed N --seconds S --trace 0|1 "
               "[--spans FILE] [--corrupt]\n");
  return 2;
}

}  // namespace
}  // namespace cartbench

int main(int argc, char** argv) {
  using namespace cartbench;
  Params p;
  double seconds = 10.0;
  int trace = 0;
  std::string spans;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      p.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      p.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--spans" && has_value) {
      spans = argv[++i];
    } else if (a == "--corrupt") {
      p.corrupt_op = 5;
    } else {
      return usage();
    }
  }
  if (!known_workload(p.workload) || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    return usage();
  }
  if (const std::string why = build_refusal(); !why.empty()) {
    std::fprintf(stderr, "cartbench: refusing to report from a%s build\n", why.c_str());
    return 3;
  }
  if (const char* knob = path_knob()) {
    std::fprintf(stderr, "cartbench: refusing to run with %s set\n", knob);
    return 3;
  }
  const long ncpu = sysconf(_SC_NPROCESSORS_ONLN);
  if (ncpu < kProcs) {
    std::fprintf(stderr, "cartbench: warning: %ld CPUs for %d rank threads\n", ncpu, kProcs);
  }
  p.nprocs = kProcs;

  Json out;
  Tally tally;
  try {
    if (trace == 0) {
      untraced_run(p, seconds, out, tally);
    } else {
      traced_run(p, seconds, spans, out, tally);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cartbench: %s\n", e.what());
    tally.failed = std::max<long>(tally.failed, 1);
    tally.attempted = std::max(tally.attempted, tally.failed);
  }
  out.info("fail_ratio", static_cast<double>(tally.failed) /
                             static_cast<double>(std::max<long>(tally.attempted, 1)));
  out.info("nproc", static_cast<double>(ncpu));
  out.info("llc_bytes", static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
  out.info("bulk_array_bytes", 8.0 * 1024 * 1024 * p.nprocs);
  out.info("compiler", __VERSION__);
  out.info("sanitized", kSanitized ? 1.0 : 0.0);
  out.info("mpl_checked", kChecked ? 1.0 : 0.0);
  out.info("build_type", CARTBENCH_BUILD_TYPE);
  out.print(p, trace, tally);
  return tally.failed == 0 ? 0 : 1;
}
