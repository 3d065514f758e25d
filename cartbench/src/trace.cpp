// Span analysis of the traced run: self times per layer, per-op spread of
// rank entry stamps, the undivided-versus-split difference and the check
// that every op's child spans nest inside it without overlapping.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench.hpp"

namespace cartbench {

const char* name_str(Name n) {
  static const char* const kStr[kNames] = {
      "op",      "undivided", "bind",   "start",  "wait",
      "allreduce", "compute", "stage", "oracle", "create"};
  return kStr[static_cast<int>(n)];
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return kNaN;
  std::sort(v.begin(), v.end());
  const double pos = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = pos < 1.0 ? 0 : static_cast<std::size_t>(pos) - 1;
  return v[std::min(i, v.size() - 1)];
}

namespace {

bool is_comm(Name n) {
  return n == Name::undivided || n == Name::bind || n == Name::start ||
         n == Name::wait || n == Name::allreduce;
}

bool is_split_step(Name n) {
  return n == Name::bind || n == Name::start || n == Name::wait;
}

}  // namespace

TraceSummary analyse(std::span<const SpanLog> logs, const Workload& w) {
  struct OpAgg {
    double time = 0.0;  // max over ranks
    double first = 1e300, last = -1e300;
  };
  std::map<long, OpAgg> ops;
  std::vector<double> by_name[kNames];
  std::vector<double> undivided[3], split_steps[3], gaps, split_ops;
  double comm = 0.0, compute = 0.0, stage = 0.0;
  TraceSummary s;

  for (const SpanLog& log : logs) {
    const std::span<const Span> sp = log.spans();
    std::vector<double> covered(sp.size(), 0.0), oracle(sp.size(), 0.0),
        steps(sp.size(), 0.0), last_end(sp.size(), -1e300);
    for (std::size_t i = 0; i < sp.size(); ++i) {
      const Span& c = sp[i];
      if (c.op < 0) continue;  // setup spans
      const double d = c.t1 - c.t0;
      by_name[static_cast<int>(c.name)].push_back(d);
      if (is_comm(c.name)) comm += d;
      if (c.name == Name::compute) compute += d;
      if (c.name == Name::stage) stage += d;
      if (c.name == Name::undivided) undivided[w.kind(c.op)].push_back(d);
      if (c.parent < 0) continue;
      const std::size_t p = static_cast<std::size_t>(c.parent);
      const Span& par = sp[p];
      if (c.t0 < par.t0 || c.t1 > par.t1 || c.t0 < last_end[p] ||
          c.op != par.op) {
        ++s.nesting_errors;
      }
      last_end[p] = c.t1;
      covered[p] += d;
      if (c.name == Name::oracle) oracle[p] += d;
      if (is_split_step(c.name)) steps[p] += d;
    }
    for (std::size_t i = 0; i < sp.size(); ++i) {
      const Span& o = sp[i];
      if (o.name != Name::op || o.op < 0) continue;
      const double d = o.t1 - o.t0;
      OpAgg& a = ops[o.op];
      a.time = std::max(a.time, d - oracle[i]);
      a.first = std::min(a.first, o.t0);
      a.last = std::max(a.last, o.t0);
      if (split_op(w, o.op)) {
        split_steps[w.kind(o.op)].push_back(steps[i]);
        gaps.push_back(d - covered[i]);
        split_ops.push_back(d);
      }
    }
  }

  std::vector<double> times, skews;
  for (const auto& [k, a] : ops) {
    times.push_back(a.time);
    skews.push_back(a.last - a.first);
  }
  s.ops = static_cast<long>(ops.size());
  s.op_p50_us = median(times);
  s.entry_skew_us = median(skews);
  auto med = [&](Name n) { return median(by_name[static_cast<int>(n)]); };
  s.start_us = med(Name::start);
  s.wait_us = med(Name::wait);
  s.bind_us = med(Name::bind);
  s.allreduce_us = med(Name::allreduce);
  const double app = compute > 0.0 ? compute : stage;
  s.app_us = compute > 0.0 ? med(Name::compute) : med(Name::stage);
  s.comm_share = comm / (comm + app);
  double diff = 0.0;
  for (int k = 0; k < w.kinds(); ++k) {
    s.undivided_kind_us[k] = median(undivided[k]);
    diff += s.undivided_kind_us[k] - median(split_steps[k]);
  }
  s.unattributed_us = diff / w.kinds();
  s.uncovered_share = median(gaps) / median(split_ops);
  return s;
}

bool write_spans(const std::string& path, std::span<const SpanLog> logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "rank,op,name,parent,t0_us,t1_us\n");
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      std::fprintf(f, "%d,%ld,%s,%d,%.3f,%.3f\n", s.rank, s.op,
                   name_str(s.name), s.parent, s.t0, s.t1);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace cartbench
