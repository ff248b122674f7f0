// Paper-scale benchmark for the tunesssp library.
//
// Calls the library's public functions from outside, times them, checks
// every answer, and prints one JSON result line (the last line of
// stdout). Two workloads, one per paper graph class:
//
//   cal   graph::make_dataset(kCal, 1.0)  — road: high diameter, small
//         frontiers; time goes to per-iteration overhead.
//   wiki  graph::make_dataset(kWiki, 1.0) — R-MAT: low diameter, huge
//         frontiers; time goes to the parallel edge walk.
//
// Each run has three measured legs:
//
//   solve   per pinned source (drawn once from the largest weak
//           component, out-degree >= 1): Dijkstra, delta-stepping,
//           near-far and self-tuning at 1 and nproc pool threads; every
//           result is certified at nproc threads and compared with
//           Dijkstra.
//   closed  the pinned certified-serving mix (60% of queries to 4 hot
//           sources, the rest uniform) through an in-process
//           serve::Server with ServerOptions{} over a 512 x 512 road
//           graph, `nproc` callers each waiting for its reply.
//   open    the same mix and server at a pinned Poisson rate; latency
//           is measured from each query's due time.
//
// With --trace 1 the run also arms prof::Profiler around re-runs of the
// pipeline engines, records spans around every layer call, and reports
// the per-layer metrics (plus the ungated end-to-end ones) instead of
// the gated end-to-end metrics.
//
//   perfbench --workload cal --prepare 1 --data-dir <dir>
//   perfbench --workload cal --seed 1 --seconds 45 --trace 0
//             --data-dir <dir for graph caches and trace files>
//
// --prepare 1 generates the graph caches and the pinned source list once
// per data directory and exits; a measured run would otherwise do it
// first, outside its timings.
//
// Exit codes: 0 success (the result line carries correct/failed), 1
// when an answer was wrong, 2 on usage or setup errors (no result).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/self_tuning.hpp"
#include "graph/binary_io.hpp"
#include "graph/components.hpp"
#include "graph/datasets.hpp"
#include "graph/road.hpp"
#include "obs/json.hpp"
#include "prof/profiler.hpp"
#include "serve/server.hpp"
#include "sim/device.hpp"
#include "sim/dvfs.hpp"
#include "sim/run.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/near_far.hpp"
#include "util/thread_pool.hpp"
#include "verify/certifier.hpp"

namespace {

using namespace sssp;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Pinned workload constants.

constexpr double kCalSetPoint = 20000.0;   // ROADMAP table, Cal row
constexpr double kWikiSetPoint = 600000.0; // ROADMAP table, Wiki row
constexpr std::size_t kParallelThreshold = 4096;  // engine default
constexpr std::uint64_t kBootstrapIterations = 5; // controller default
constexpr int kSetupRepeats = 3;
// Pinned solve-leg sources. On a 4-core host one pass takes about 20 s
// on Cal and 28 s on Wiki; further passes run only while they fit the
// solve leg's share of --seconds.
constexpr std::uint64_t kSourceSeed = 20180521;
constexpr std::size_t kCalSources = 6;
constexpr std::size_t kWikiSources = 4;
// Shares of --seconds given to the solve, closed-loop and open-loop legs.
// At 45 s the open loop sends 1013 queries, so p99 has 10 beyond it.
constexpr double kSolveShare = 0.535;
constexpr double kClosedShare = 0.09;
constexpr double kOpenShare = 0.375;
// Open-loop arrival rate (queries/s), about two thirds of the
// closed-loop capacity measured on a 4-core host.
constexpr double kOpenLoopQps = 60.0;
constexpr int kBlock = 10;       // queries per mix block
constexpr int kHotPerBlock = 6;  // 60% of queries go to the hot sources
constexpr int kHotSources = 4;
constexpr int kForkJoinProbes = 2000;

// End-to-end metrics whose run-to-run spread on a shared 4-core host is
// far above the 0.25 ceiling a gate may have (fork/join and queueing
// amplify host contention; see perfbench/NOTES.md). They are measured
// on every run and listed in the report line, but published with the
// ungated per-layer set.
bool ungated(const std::string& metric) {
  return metric == "self_tuning_tn_ms" || metric == "serve_p50_ms" ||
         metric == "serve_p99_ms";
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile: p99 of 1010 samples leaves 10 above it.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(index, v.size() - 1)];
}

// ---------------------------------------------------------------------------
// Spans recorded by the benchmark around each layer call (trace runs
// only). Kept in memory and written as a Chrome trace at the end.

class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   // 0 = root
    std::uint64_t request = 0;  // serve query id, 0 otherwise
    double start_us = 0.0;
    double end_us = 0.0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  double now_us() const { return seconds_since(t0_) * 1e6; }

  std::uint64_t begin(std::string name, std::uint64_t parent) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    Span span;
    span.name = std::move(name);
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.start_us = now_us();
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }
  void end(std::uint64_t id) {
    if (!enabled_ || id == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_us = now_us();
  }
  void record(std::string name, std::uint64_t parent, std::uint64_t request,
              double start_us, double end_us) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    Span span;
    span.name = std::move(name);
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.request = request;
    span.start_us = start_us;
    span.end_us = end_us;
    spans_.push_back(std::move(span));
  }

  // Total and self time per span name. Self time is the duration minus
  // the union of its direct children's intervals (serve queries overlap).
  std::map<std::string, std::pair<double, double>> totals_ms() const {
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size() + 1);
    for (const Span& s : spans_)
      if (s.parent != 0) children[s.parent].emplace_back(s.start_us, s.end_us);
    std::map<std::string, std::pair<double, double>> out;
    for (const Span& s : spans_) {
      auto& intervals = children[s.id];
      std::sort(intervals.begin(), intervals.end());
      double covered = 0.0, cursor = s.start_us;
      for (const auto& [begin, end] : intervals) {
        const double from = std::max(begin, cursor);
        const double to = std::min(end, s.end_us);
        if (to > from) covered += to - from;
        cursor = std::max(cursor, to);
      }
      auto& [total, self] = out[s.name];
      total += (s.end_us - s.start_us) / 1e3;
      self += (s.end_us - s.start_us - covered) / 1e3;
    }
    return out;
  }

  void write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    obs::JsonWriter w(out);
    w.begin_object().key("traceEvents").begin_array();
    for (const Span& s : spans_) {
      w.begin_object();
      w.key("name").value(s.name);
      w.key("ph").value("X");
      w.key("pid").value(1);
      w.key("tid").value(s.request == 0 ? 1 : 2);
      w.key("ts").value(s.start_us);
      w.key("dur").value(s.end_us - s.start_us);
      w.key("args").begin_object();
      w.key("id").value(s.id);
      w.key("parent").value(s.parent);
      w.key("request").value(s.request);
      w.end_object();
      w.end_object();
    }
    w.end_array().end_object();
    out << "\n";
  }

 private:
  bool enabled_;
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Scoped span; a no-op when the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::uint64_t parent = 0)
      : log_(log), id_(log.begin(std::move(name), parent)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint64_t id_;
};

// ---------------------------------------------------------------------------
// Samples and results.

// Named sample series. A distribution is reported as its p50 and p99;
// any other series as its median.
struct Samples {
  struct Series {
    std::string unit;
    std::vector<double> values;
    bool distribution = false;
  };
  std::map<std::string, Series> series;

  void add(const std::string& name, const char* unit, double v) {
    Series& s = series[name];
    s.unit = unit;
    s.values.push_back(v);
  }
  void set_distribution(const std::string& name, const char* unit,
                        std::vector<double> values) {
    series[name] = Series{unit, std::move(values), true};
  }
  const std::vector<double>& at(const std::string& name) const {
    static const std::vector<double> empty;
    const auto it = series.find(name);
    return it == series.end() ? empty : it->second.values;
  }
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;
};

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for stderr
  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 16) failures.push_back(what);
  }
};

// ---------------------------------------------------------------------------
// Host facts.

// 0 when the C library cannot tell.
std::uint64_t l3_bytes() {
  const long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return bytes > 0 ? static_cast<std::uint64_t>(bytes) : 0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

// ---------------------------------------------------------------------------
// Graph caches: generated once per data directory, outside any timing.

std::string ensure_cache(const std::string& path,
                         const std::function<graph::CsrGraph()>& make) {
  if (!std::filesystem::exists(path)) {
    const auto t0 = Clock::now();
    const graph::CsrGraph g = make();
    const std::string tmp = path + ".tmp";
    graph::save_binary_file(g, tmp);
    std::filesystem::rename(tmp, path);
    std::fprintf(stderr, "perfbench: generated %s (%.1f s)\n", path.c_str(),
                 seconds_since(t0));
  }
  return path;
}

graph::CsrGraph make_serving_graph() {
  graph::RoadOptions options;  // 512 x 512, seed 7: bench_tool's full road
  options.rows = 512;
  options.cols = 512;
  options.seed = 7;
  return graph::generate_road(options);
}

// ---------------------------------------------------------------------------
// Solve leg.

struct Workload {
  std::string name;
  graph::Dataset dataset;
  double set_point;
  std::size_t sources;  // pinned solve-leg sources
};

std::vector<graph::VertexId> candidate_sources(const graph::CsrGraph& g) {
  const graph::ComponentLabeling wcc = graph::weakly_connected_components(g);
  const std::uint32_t largest = wcc.largest_component();
  std::vector<graph::VertexId> out;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    if (wcc.label[v] == largest && g.out_degree(v) > 0) out.push_back(v);
  return out;
}

// The warmup source followed by the workload's pinned solve sources,
// drawn by a fixed-seed RNG. Finding the largest weak component takes
// seconds on Wiki, so the draw is cached next to the graph cache.
std::string sources_path(const std::string& graph_path, const Workload& wl) {
  return graph_path + ".sources-" + std::to_string(wl.sources);
}

std::vector<graph::VertexId> pinned_sources(const graph::CsrGraph& g,
                                            const Workload& wl,
                                            const std::string& graph_path) {
  const std::string path = sources_path(graph_path, wl);
  std::vector<graph::VertexId> out;
  {
    std::ifstream in(path);
    for (std::uint64_t v; in >> v && v < g.num_vertices();)
      out.push_back(static_cast<graph::VertexId>(v));
  }
  if (out.size() == wl.sources + 1) return out;

  const std::vector<graph::VertexId> candidates = candidate_sources(g);
  if (candidates.empty()) throw std::runtime_error("no source candidates");
  std::mt19937_64 rng(kSourceSeed);
  std::uniform_int_distribution<std::size_t> pick(0, candidates.size() - 1);
  out.assign(wl.sources + 1, 0);
  for (graph::VertexId& v : out) v = candidates[pick(rng)];
  {
    std::ofstream file(path + ".tmp");
    for (const graph::VertexId v : out) file << v << "\n";
  }
  std::filesystem::rename(path + ".tmp", path);
  return out;
}

double ms_of(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

template <typename Fn>
algo::SsspResult timed(SpanLog& spans, std::uint64_t parent,
                       const std::string& name, double& ms, Fn&& fn) {
  ScopedSpan span(spans, name, parent);
  const auto t0 = Clock::now();
  algo::SsspResult r = fn();
  ms = ms_of(t0);
  return r;
}

algo::SsspResult run_self_tuning(const graph::CsrGraph& g, graph::VertexId s,
                                 double set_point) {
  core::SelfTuningOptions options;
  options.set_point = set_point;
  return core::self_tuning_sssp(g, s, options);
}

double phase_ms(const prof::RunProfile& p, const char* phase) {
  const auto it = p.phases.find(phase);
  return it == p.phases.end() ? 0.0 : it->second.seconds * 1e3;
}

prof::RunProfile profiled(const std::function<void()>& fn) {
  prof::Profiler& profiler = prof::Profiler::global();
  profiler.start();
  fn();
  profiler.stop();
  return profiler.report();
}

// Traced re-runs of the pipeline engines at both thread counts: phase
// split for the frontier/core layers, the tracing overhead against the
// untraced timings, and the t1 certifier.
void traced_pass(const graph::CsrGraph& g, graph::VertexId source,
                 const Workload& wl, std::size_t nproc, double untraced_ms,
                 const algo::SsspResult& reference, SpanLog& spans,
                 std::uint64_t parent, Samples& layer) {
  const auto t0 = Clock::now();
  algo::SsspResult nf_tn, st_tn;
  prof::RunProfile nf_profile, st_profile;
  util::ThreadPool::set_global_threads(1);
  {
    ScopedSpan span(spans, "near_far_t1.traced", parent);
    profiled([&] { algo::near_far(g, source); });
  }
  {
    ScopedSpan span(spans, "self_tuning_t1.traced", parent);
    profiled([&] { run_self_tuning(g, source, wl.set_point); });
  }
  util::ThreadPool::set_global_threads(nproc);
  {
    ScopedSpan span(spans, "near_far_tn.traced", parent);
    nf_profile = profiled([&] { nf_tn = algo::near_far(g, source); });
  }
  {
    ScopedSpan span(spans, "self_tuning_tn.traced", parent);
    st_profile =
        profiled([&] { st_tn = run_self_tuning(g, source, wl.set_point); });
  }
  const double traced_ms = ms_of(t0);
  layer.add("trace.overhead_share", "ratio",
            (traced_ms - untraced_ms) / untraced_ms);

  layer.add("frontier.advance.plan_ms", "ms",
            phase_ms(nf_profile, "advance.plan"));
  layer.add("frontier.advance.relax_ms", "ms",
            phase_ms(nf_profile, "advance.relax"));
  layer.add("frontier.advance.candidates_ms", "ms",
            phase_ms(nf_profile, "advance.candidates"));
  layer.add("frontier.advance.emit_ms", "ms",
            phase_ms(nf_profile, "advance.emit"));
  layer.add("frontier.advance.serial_ms", "ms",
            phase_ms(nf_profile, "advance"));
  layer.add("frontier.filter_ms", "ms", phase_ms(nf_profile, "filter"));
  layer.add("frontier.bisect_ms", "ms", phase_ms(nf_profile, "bisect"));
  layer.add("frontier.far_spill_ms", "ms", phase_ms(st_profile, "far_spill"));
  layer.add("sssp.near_far.untracked_share", "ratio",
            phase_ms(nf_profile, "(untracked)") /
                (nf_profile.wall_seconds * 1e3));
  layer.add("core.controller_ms", "ms", phase_ms(st_profile, "controller"));
  layer.add("core.rebalance_ms", "ms", phase_ms(st_profile, "rebalance"));

  double walked = 0.0, parallel_iterations = 0.0;
  for (const auto& it : nf_tn.iterations) {
    walked += static_cast<double>(it.x2);
    if (it.x1 >= kParallelThreshold) parallel_iterations += 1.0;
  }
  layer.add("frontier.edges_walked", "count", walked);
  layer.add("frontier.parallel_iterations", "count", parallel_iterations);
  layer.add("frontier.work_efficiency", "ratio",
            static_cast<double>(reference.reached_count()) /
                static_cast<double>(std::max<std::uint64_t>(
                    1, nf_tn.improving_relaxations)));
  layer.add("sssp.near_far.iterations", "count",
            static_cast<double>(nf_tn.num_iterations()));

  std::vector<double> error;
  for (std::size_t i = kBootstrapIterations; i < st_tn.iterations.size(); ++i)
    error.push_back(
        std::abs(static_cast<double>(st_tn.iterations[i].x2) - wl.set_point) /
        wl.set_point);
  layer.add("core.setpoint_error", "ratio", median(error));
  layer.add("core.iterations", "count",
            static_cast<double>(st_tn.num_iterations()));
  layer.add("core.improving_relaxations", "count",
            static_cast<double>(st_tn.improving_relaxations));
  layer.add("core.degradations", "count",
            static_cast<double>(st_tn.controller_degradations));

  util::ThreadPool::set_global_threads(1);
  {
    ScopedSpan span(spans, "certify_t1", parent);
    const auto c0 = Clock::now();
    const verify::Certificate cert = verify::certify(g, st_tn);
    layer.add("verify.certify_t1_ms", "ms", ms_of(c0));
    layer.add("verify.edges_checked", "count",
              static_cast<double>(cert.edges_checked));
  }
  util::ThreadPool::set_global_threads(nproc);
}

// One source through every engine: timed solves, then the checks.
void measure_source(const graph::CsrGraph& g, const Workload& wl,
                    graph::VertexId source, std::size_t nproc, bool trace,
                    SpanLog& spans, Samples& e2e, Samples& layer,
                    Checks& checks) {
  ScopedSpan root(spans, "source");
  const std::uint64_t p = root.id();

  struct Solve {
    const char* name;
    double ms = 0.0;
    algo::SsspResult result;
  };
  Solve solves[6] = {{"dijkstra", 0.0, {}},    {"delta_stepping", 0.0, {}},
                     {"near_far_t1", 0.0, {}}, {"self_tuning_t1", 0.0, {}},
                     {"near_far_tn", 0.0, {}}, {"self_tuning_tn", 0.0, {}}};
  Solve& dij = solves[0];
  Solve& delta = solves[1];
  Solve& nf1 = solves[2];
  Solve& st1 = solves[3];
  Solve& nfn = solves[4];
  Solve& stn = solves[5];

  util::ThreadPool::set_global_threads(1);
  dij.result = timed(spans, p, dij.name, dij.ms,
                     [&] { return algo::dijkstra(g, source); });
  delta.result = timed(spans, p, delta.name, delta.ms,
                       [&] { return algo::delta_stepping(g, source); });
  nf1.result = timed(spans, p, nf1.name, nf1.ms,
                     [&] { return algo::near_far(g, source); });
  st1.result = timed(spans, p, st1.name, st1.ms, [&] {
    return run_self_tuning(g, source, wl.set_point);
  });
  util::ThreadPool::set_global_threads(nproc);
  nfn.result = timed(spans, p, nfn.name, nfn.ms,
                     [&] { return algo::near_far(g, source); });
  stn.result = timed(spans, p, stn.name, stn.ms, [&] {
    return run_self_tuning(g, source, wl.set_point);
  });
  const double untraced_pipeline_ms = nf1.ms + st1.ms + nfn.ms + stn.ms;

  e2e.add("dijkstra_ms", "ms", dij.ms);
  e2e.add("delta_stepping_ms", "ms", delta.ms);
  e2e.add("near_far_t1_ms", "ms", nf1.ms);
  e2e.add("self_tuning_t1_ms", "ms", st1.ms);
  e2e.add("near_far_tn_ms", "ms", nfn.ms);
  e2e.add("self_tuning_tn_ms", "ms", stn.ms);

  // Every solve: certified at nproc threads and equal to Dijkstra.
  const std::string where = wl.name + " source " + std::to_string(source);
  for (Solve& s : solves) {
    ++checks.attempted;
    verify::Certificate cert;
    {
      ScopedSpan span(spans, "certify_tn", p);
      const auto c0 = Clock::now();
      cert = verify::certify(g, s.result);
      e2e.add("certify_tn_ms", "ms", ms_of(c0));
    }
    if (!cert.certified)
      checks.fail(where + ": " + s.name + " " + cert.summary());
    else if (s.result.distances != dij.result.distances)
      checks.fail(where + ": " + s.name + " distances differ from dijkstra");
    else if (&s == &nfn && nfn.result.parents != nf1.result.parents)
      checks.fail(where + ": near_far parents differ between t1 and tn");
    else if (&s == &stn && stn.result.parents != st1.result.parents)
      checks.fail(where + ": self_tuning parents differ between t1 and tn");
  }

  {
    ScopedSpan span(spans, "sim.simulate_run", p);
    sim::SimulateOptions options;
    options.keep_iteration_reports = false;
    const sim::RunReport report =
        sim::simulate_run(sim::DeviceSpec::jetson_tk1(),
                          sim::DefaultGovernor{},
                          stn.result.to_workload(wl.name), options);
    e2e.add("sim_energy_j", "J", report.energy_joules);
    layer.add("sim.tk1_seconds", "s", report.total_seconds);
    layer.add("sim.avg_power_w", "W", report.average_power_w);
  }

  if (trace)
    traced_pass(g, source, wl, nproc, untraced_pipeline_ms, dij.result,
                spans, p, layer);
}

// The solve leg measures a pinned source set, drawn once per workload
// from a fixed-seed RNG, so that runs with different --seed values time
// the same solves: on R-MAT the near-far work differs by up to 2x
// between sources, which a handful of sources per run cannot average out.
// --seed rotates the order. Full passes repeat while the budget lasts.
void solve_leg(const graph::CsrGraph& g, const Workload& wl,
               const std::vector<graph::VertexId>& pinned, std::uint64_t seed,
               double budget_s, std::size_t nproc, bool trace, SpanLog& spans,
               Samples& e2e, Samples& layer, Checks& checks) {
  // pinned[0] is the warmup source (excluded): one near-far solve at
  // nproc threads touches the graph and starts the pool.
  {
    ScopedSpan span(spans, "warmup");
    util::ThreadPool::set_global_threads(nproc);
    algo::near_far(g, pinned[0]);
  }
  std::vector<graph::VertexId> sources(pinned.begin() + 1, pinned.end());
  std::rotate(sources.begin(), sources.begin() + seed % sources.size(),
              sources.end());

  const auto t0 = Clock::now();
  for (std::size_t passes = 0;; ++passes) {
    const double elapsed = seconds_since(t0);
    if (passes > 0 &&
        elapsed + elapsed / static_cast<double>(passes) > budget_s)
      break;
    for (const graph::VertexId source : sources)
      measure_source(g, wl, source, nproc, trace, spans, e2e, layer, checks);
  }
  util::ThreadPool::set_global_threads(nproc);
}

// ---------------------------------------------------------------------------
// Serve leg.

struct Query {
  graph::VertexId source = 0;
  double due_s = 0.0;     // open loop: scheduled send time
  double submit_s = 0.0;  // when submit() was called
  double done_s = 0.0;    // when the response arrived
  bool answered = false;
  serve::Response response;
};

// Deals the pinned mix in shuffled blocks of ten: exactly six queries to
// the hot sources (round-robin) and four to uniform cold sources, so the
// hot share does not vary from run to run.
class MixSource {
 public:
  MixSource(std::uint64_t seed, const graph::VertexId* hot,
            std::size_t num_vertices)
      : rng_(seed),
        any_(0, static_cast<graph::VertexId>(num_vertices - 1)),
        hot_(hot) {}

  graph::VertexId next() {
    if (pos_ == block_.size()) refill();
    return block_[pos_++];
  }
  std::mt19937_64& rng() { return rng_; }

 private:
  void refill() {
    block_.clear();
    for (int i = 0; i < kBlock; ++i)
      block_.push_back(i < kHotPerBlock ? hot_[next_hot_++ % kHotSources]
                                        : any_(rng_));
    std::shuffle(block_.begin(), block_.end(), rng_);
    pos_ = 0;
  }

  std::mt19937_64 rng_;
  std::uniform_int_distribution<graph::VertexId> any_;
  const graph::VertexId* hot_;
  std::vector<graph::VertexId> block_;
  std::size_t pos_ = 0;
  std::size_t next_hot_ = 0;
};

std::string request_line(std::uint64_t id, graph::VertexId source) {
  return "{\"id\":" + std::to_string(id) +
         ",\"source\":" + std::to_string(source) + "}";
}

struct ServeLegResult {
  std::vector<Query> queries;
  double seconds = 0.0;
  std::uint64_t completed = 0, batched = 0, shed = 0;
};

void take_stats_delta(const serve::Server& server,
                      const serve::ServerStats& before, ServeLegResult& r) {
  const serve::ServerStats after = server.stats();
  r.completed = after.completed - before.completed;
  r.batched = after.batched_queries - before.batched_queries;
  const auto shed = [](const serve::ServerStats& s) {
    return s.shed_queue_full + s.shed_expired_queue + s.shed_draining +
           s.shed_memory;
  };
  r.shed = shed(after) - shed(before);
}

ServeLegResult closed_loop(serve::Server& server, const graph::VertexId* hot,
                           std::size_t num_vertices, std::uint64_t seed,
                           std::size_t callers, double seconds,
                           SpanLog& spans, std::uint64_t parent) {
  ServeLegResult leg;
  const serve::ServerStats before = server.stats();
  std::vector<std::vector<Query>> per_caller(callers);
  const auto t0 = Clock::now();
  const double base_us = spans.now_us();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      MixSource mix(seed * 1000003 + c, hot, num_vertices);
      std::mutex mu;
      std::condition_variable cv;
      std::vector<Query>& mine = per_caller[c];
      for (std::uint64_t i = 0; seconds_since(t0) < seconds; ++i) {
        Query q;
        q.source = mix.next();
        const std::uint64_t id = (c + 1) * 10000000 + i;
        bool got = false;
        q.submit_s = seconds_since(t0);
        server.submit(request_line(id, q.source),
                      [&](const serve::Response& r) {
                        const double done = seconds_since(t0);
                        std::lock_guard<std::mutex> lock(mu);
                        q.response = r;
                        q.done_s = done;
                        got = true;
                        cv.notify_one();
                      });
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return got; });
        }
        q.answered = true;
        spans.record("serve.query", parent, id, base_us + q.submit_s * 1e6,
                     base_us + q.done_s * 1e6);
        mine.push_back(std::move(q));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  leg.seconds = seconds_since(t0);
  for (auto& v : per_caller)
    for (Query& q : v) leg.queries.push_back(std::move(q));
  take_stats_delta(server, before, leg);
  return leg;
}

ServeLegResult open_loop(serve::Server& server, const graph::VertexId* hot,
                         std::size_t num_vertices, std::uint64_t seed,
                         std::size_t count, SpanLog& spans,
                         std::uint64_t parent, std::vector<double>& late_ms) {
  ServeLegResult leg;
  const serve::ServerStats before = server.stats();
  leg.queries.resize(count);
  MixSource mix(seed * 1000003 + 999, hot, num_vertices);
  std::exponential_distribution<double> gap(kOpenLoopQps);
  double due = 0.0;
  for (Query& q : leg.queries) {
    due += gap(mix.rng());
    q.due_s = due;
    q.source = mix.next();
  }

  std::mutex mu;
  std::condition_variable cv;
  std::size_t answered = 0;
  const auto t0 = Clock::now();
  const double base_us = spans.now_us();
  for (std::size_t i = 0; i < count; ++i) {
    Query& q = leg.queries[i];
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(q.due_s)));
    q.submit_s = seconds_since(t0);
    late_ms.push_back((q.submit_s - q.due_s) * 1e3);
    server.submit(request_line(i + 1, q.source),
                  [&, i](const serve::Response& r) {
                    const double done = seconds_since(t0);
                    std::lock_guard<std::mutex> lock(mu);
                    Query& mine = leg.queries[i];
                    mine.response = r;
                    mine.done_s = done;
                    mine.answered = true;
                    ++answered;
                    cv.notify_one();
                  });
  }
  {
    // Every admitted query gets exactly one response, and the sinks
    // reference this frame, so wait for all of them.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return answered == count; });
  }
  leg.seconds = seconds_since(t0);
  {
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t i = 0; i < count; ++i) {
      const Query& q = leg.queries[i];
      if (q.answered)
        spans.record("serve.query", parent, i + 1, base_us + q.due_s * 1e6,
                     base_us + q.done_s * 1e6);
    }
  }
  take_stats_delta(server, before, leg);
  return leg;
}

// Checks every answer against Dijkstra (computed after the legs, outside
// their timed windows, in parallel over distinct sources).
void check_serve(const graph::CsrGraph& g,
                 const std::vector<const ServeLegResult*>& legs,
                 SpanLog& spans, Checks& checks) {
  ScopedSpan span(spans, "serve.reference_dijkstra");
  std::unordered_map<graph::VertexId, std::uint64_t> index;
  std::vector<graph::VertexId> sources;
  for (const ServeLegResult* leg : legs)
    for (const Query& q : leg->queries)
      if (index.emplace(q.source, sources.size()).second)
        sources.push_back(q.source);
  std::vector<std::uint64_t> checksum(sources.size());
  util::ThreadPool::global().for_each_chunk(
      sources.size(), [&](std::size_t i, std::size_t) {
        const std::vector<graph::Distance> d =
            algo::dijkstra_distances(g, sources[i]);
        checksum[i] =
            graph::fnv1a64(d.data(), d.size() * sizeof(graph::Distance));
      });
  for (const ServeLegResult* leg : legs)
    for (const Query& q : leg->queries) {
      ++checks.attempted;
      const std::string where = "serve source " + std::to_string(q.source);
      if (!q.answered) {
        checks.fail(where + ": no response");
      } else if (q.response.status != serve::Status::kOk) {
        checks.fail(where + ": " + serve::to_string(q.response.status) + " " +
                    q.response.error);
      } else if (!q.response.verified || !q.response.certified) {
        checks.fail(where + ": ok response not certified");
      } else if (q.response.dist_checksum != checksum[index.at(q.source)]) {
        checks.fail(where + ": checksum differs from dijkstra");
      }
    }
}

void serve_legs(serve::Server& server, const graph::CsrGraph& road,
                std::uint64_t seed, double seconds, std::size_t nproc,
                SpanLog& spans, Samples& e2e, Samples& layer, Checks& checks) {
  std::mt19937_64 rng(seed ^ 0x5e57e5e5ULL);
  std::uniform_int_distribution<graph::VertexId> any(
      0, static_cast<graph::VertexId>(road.num_vertices() - 1));
  graph::VertexId hot[kHotSources];
  for (graph::VertexId& h : hot) h = any(rng);

  ServeLegResult closed, open;
  std::vector<double> late_ms;
  {
    ScopedSpan span(spans, "serve.closed_loop");
    closed = closed_loop(server, hot, road.num_vertices(), seed, nproc,
                         kClosedShare * seconds, spans, span.id());
  }
  {
    ScopedSpan span(spans, "serve.open_loop");
    const auto count = static_cast<std::size_t>(
        std::ceil(kOpenLoopQps * kOpenShare * seconds));
    open = open_loop(server, hot, road.num_vertices(), seed, count, spans,
                     span.id(), late_ms);
  }
  check_serve(road, {&closed, &open}, spans, checks);

  e2e.add("serve_qps", "1/s",
          static_cast<double>(closed.completed) / closed.seconds);
  std::vector<double> latency, queue, hit_run, miss_run;
  std::uint64_t ok = 0, hits = 0;
  for (const Query& q : open.queries)
    if (q.answered && q.response.status == serve::Status::kOk) {
      latency.push_back((q.done_s - q.due_s) * 1e3);
      queue.push_back(q.response.queue_ms);
    }
  for (const ServeLegResult* leg : {&closed, &open})
    for (const Query& q : leg->queries)
      if (q.answered && q.response.status == serve::Status::kOk) {
        ++ok;
        if (q.response.cache_hit) {
          ++hits;
          hit_run.push_back(q.response.run_ms);
        } else {
          miss_run.push_back(q.response.run_ms);
        }
      }
  e2e.set_distribution("serve_latency_ms", "ms", latency);
  layer.set_distribution("serve.queue_ms", "ms", queue);
  layer.set_distribution("serve.run_ms_hit", "ms", hit_run);
  layer.set_distribution("serve.run_ms_miss", "ms", miss_run);
  layer.set_distribution("serve.generator_late_ms", "ms", late_ms);
  layer.add("serve.cache_hit_ratio", "ratio",
            ok ? static_cast<double>(hits) / static_cast<double>(ok) : 0.0);
  layer.add("serve.coalesced_share", "ratio",
            closed.completed ? static_cast<double>(closed.batched) /
                                   static_cast<double>(closed.completed)
                             : 0.0);
  layer.add("serve.shed", "count",
            static_cast<double>(closed.shed + open.shed));
  layer.add("serve.closed_queries", "count",
            static_cast<double>(closed.queries.size()));
  layer.add("serve.open_queries", "count",
            static_cast<double>(open.queries.size()));
}

// ---------------------------------------------------------------------------
// Thread-pool fork/join probe: an empty for_each_chunk at nproc threads.

void fork_join_probe(std::size_t nproc, Samples& layer) {
  util::ThreadPool::set_global_threads(nproc);
  util::ThreadPool& pool = util::ThreadPool::global();
  std::vector<double> us;
  us.reserve(kForkJoinProbes);
  for (int i = 0; i < kForkJoinProbes; ++i) {
    const auto t0 = Clock::now();
    pool.for_each_chunk(nproc, [](std::size_t, std::size_t) {});
    us.push_back(seconds_since(t0) * 1e6);
  }
  layer.set_distribution("util.thread_pool.fork_join_us", "us", us);
}

// ---------------------------------------------------------------------------
// Output.

void print_metrics(const std::vector<Metric>& metrics, const Checks& checks,
                   const std::string& report_line) {
  std::cout << report_line << "\n";
  std::ostringstream line;
  obs::JsonWriter w(line);
  w.begin_object();
  w.key("correct").value(checks.failed == 0);
  w.key("attempted").value(checks.attempted);
  w.key("failed").value(checks.failed);
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object().end_object();
  std::cout << line.str() << std::endl;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 45.0;
  bool trace = false;
  bool prepare = false;  // only build the graph and source caches
  std::string data_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--prepare") a.prepare = value == "1";
    else if (flag == "--data-dir") a.data_dir = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.workload != "cal" && a.workload != "wiki")
    throw std::invalid_argument("--workload must be cal or wiki");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

int run(const Args& args) {
  const Workload wl =
      args.workload == "cal"
          ? Workload{"cal", graph::Dataset::kCal, kCalSetPoint, kCalSources}
          : Workload{"wiki", graph::Dataset::kWiki, kWikiSetPoint,
                     kWikiSources};
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  SpanLog spans(args.trace);
  std::filesystem::create_directories(args.data_dir);

  // Graph caches (generated once per data directory, untimed).
  const std::string big_path = ensure_cache(
      args.data_dir + "/" + wl.name + "-1.0-seed42.v2.bin", [&] {
        graph::DatasetOptions options;
        options.scale = 1.0;
        return graph::make_dataset(wl.dataset, options);
      });
  const std::string road_path = ensure_cache(
      args.data_dir + "/road512-seed7.v2.bin", make_serving_graph);
  if (args.prepare) {
    // One-time work in its own process, so the measured run's peak RSS
    // does not depend on whether the caches already existed.
    if (!std::filesystem::exists(sources_path(big_path, wl)))
      pinned_sources(graph::load_binary_file(big_path), wl, big_path);
    return 0;
  }

  // Set-up, repeated: load both graph caches, build and start the server.
  std::unique_ptr<graph::CsrGraph> big, road;
  std::unique_ptr<serve::Server> server;
  std::vector<double> setup_s, load_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    server.reset();
    big.reset();
    road.reset();
    ScopedSpan span(spans, "setup");
    const auto t0 = Clock::now();
    {
      ScopedSpan load(spans, "graph.load", span.id());
      big = std::make_unique<graph::CsrGraph>(
          graph::load_binary_file(big_path));
      load_s.push_back(seconds_since(t0));
    }
    {
      ScopedSpan load(spans, "graph.load_serving", span.id());
      road = std::make_unique<graph::CsrGraph>(
          graph::load_binary_file(road_path));
    }
    {
      ScopedSpan start(spans, "serve.start", span.id());
      server = std::make_unique<serve::Server>(*road, serve::ServerOptions{});
      server->start();
    }
    setup_s.push_back(seconds_since(t0));
  }

  // Host facts (byte counts are computed from the CSR arrays).
  std::string energy_backend, counter_backend;
  {
    prof::Profiler& profiler = prof::Profiler::global();
    profiler.start();
    profiler.stop();
    const prof::RunProfile probe = profiler.report();
    energy_backend = prof::to_string(probe.energy.backend);
    counter_backend = prof::to_string(probe.counter_backend);
  }

  Samples e2e, layer;
  Checks checks;
  solve_leg(*big, wl, pinned_sources(*big, wl, big_path), args.seed,
            kSolveShare * args.seconds, nproc, args.trace, spans, e2e, layer,
            checks);
  serve_legs(*server, *road, args.seed, args.seconds, nproc, spans, e2e,
             layer, checks);
  server->drain();
  if (args.trace) fork_join_probe(nproc, layer);

  const auto sample = [](const Samples& s, const std::string& name) {
    return std::make_pair(median(s.at(name)), s.at(name).size());
  };
  std::vector<Metric> end_to_end, per_layer;
  const auto add = [](std::vector<Metric>& to, const std::string& name,
                      const std::string& unit,
                      std::pair<double, std::size_t> v) {
    to.push_back(Metric{name, unit, v.first, v.second});
  };
  add(end_to_end, "setup_s", "s", {median(setup_s), setup_s.size()});
  add(end_to_end, "peak_rss_mb", "MB", {peak_rss_mb(), 1});
  for (const char* name :
       {"dijkstra_ms", "delta_stepping_ms", "near_far_t1_ms", "near_far_tn_ms",
        "self_tuning_t1_ms", "self_tuning_tn_ms", "certify_tn_ms"})
    add(end_to_end, name, "ms", sample(e2e, name));
  add(end_to_end, "sim_energy_j", "J", sample(e2e, "sim_energy_j"));
  add(end_to_end, "serve_qps", "1/s", sample(e2e, "serve_qps"));
  const auto& latency = e2e.at("serve_latency_ms");
  add(end_to_end, "serve_p50_ms", "ms",
      {percentile(latency, 50.0), latency.size()});
  add(end_to_end, "serve_p99_ms", "ms",
      {percentile(latency, 99.0), latency.size()});

  if (args.trace) {
    add(per_layer, "graph.load_s", "s", {median(load_s), load_s.size()});
    add(per_layer, "graph.bytes", "B",
        {static_cast<double>(big->memory_bytes()), 1});
    for (const auto& [name, series] : layer.series) {
      if (!series.distribution) {
        add(per_layer, name, series.unit, sample(layer, name));
        continue;
      }
      const std::size_t n = series.values.size();
      add(per_layer, name + "_p50", series.unit,
          {percentile(series.values, 50.0), n});
      add(per_layer, name + "_p99", series.unit,
          {percentile(series.values, 99.0), n});
    }
    add(per_layer, "failed_share", "ratio",
        {static_cast<double>(checks.failed) /
             static_cast<double>(std::max<std::uint64_t>(1, checks.attempted)),
         checks.attempted});
  }

  // The result line carries the gated end-to-end metrics, or with
  // --trace 1 the per-layer metrics plus the ungated end-to-end ones.
  std::vector<Metric> result;
  for (const Metric& m : args.trace ? per_layer : end_to_end)
    if (args.trace || !ungated(m.name)) result.push_back(m);
  if (args.trace)
    for (const Metric& m : end_to_end)
      if (ungated(m.name)) result.push_back(m);

  // Human-readable report: host facts, sample counts, span self times.
  std::ostringstream report;
  {
    obs::JsonWriter w(report);
    w.begin_object();
    w.key("perfbench").value(wl.name);
    w.key("seed").value(args.seed);
    w.key("trace").value(args.trace);
    w.key("host").begin_object();
    w.key("nproc").value(static_cast<std::uint64_t>(nproc));
    w.key("l3_bytes").value(l3_bytes());
    w.key("build_type").value(PERFBENCH_BUILD_TYPE);
    w.key("graph_bytes_computed").value(
        static_cast<std::uint64_t>(big->memory_bytes()));
    w.key("serving_graph_bytes_computed").value(
        static_cast<std::uint64_t>(road->memory_bytes()));
    w.key("graph_vertices").value(
        static_cast<std::uint64_t>(big->num_vertices()));
    w.key("graph_edges").value(static_cast<std::uint64_t>(big->num_edges()));
    w.key("energy_backend").value(energy_backend);
    w.key("counter_backend").value(counter_backend);
    w.key("energy_metric").value("sim_energy_j: modeled Jetson TK1 joules");
    w.end_object();
    const auto write_metrics = [&](const char* key,
                                   const std::vector<Metric>& metrics,
                                   const Samples& from) {
      w.key(key).begin_object();
      for (const Metric& m : metrics) {
        w.key(m.name).begin_object();
        w.key("value").value(m.value);
        w.key("unit").value(m.unit);
        w.key("samples").value(static_cast<std::uint64_t>(m.samples));
        if (&from == &e2e) w.key("gated").value(!ungated(m.name));
        const auto it = from.series.find(m.name);
        if (it != from.series.end() && !it->second.distribution) {
          w.key("values").begin_array();
          for (const double v : it->second.values) w.value(v);
          w.end_array();
        }
        w.end_object();
      }
      w.end_object();
    };
    write_metrics("end_to_end", end_to_end, e2e);
    if (args.trace) write_metrics("per_layer", per_layer, layer);
    if (args.trace) {
      w.key("spans_ms").begin_object();
      for (const auto& [name, t] : spans.totals_ms()) {
        if (name.rfind("source ", 0) == 0) continue;
        w.key(name).begin_object();
        w.key("total").value(t.first);
        w.key("self").value(t.second);
        w.end_object();
      }
      w.end_object();
    }
    w.end_object();
  }
  if (args.trace) {
    const std::string path = args.data_dir + "/trace-" + wl.name + "-seed" +
                             std::to_string(args.seed) + ".json";
    spans.write_chrome_trace(path);
    std::fprintf(stderr, "perfbench: wrote spans to %s\n", path.c_str());
  }
  for (const std::string& f : checks.failures)
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  print_metrics(result, checks, report.str());
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
