#include "frontier/engine.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "prof/profiler.hpp"
#include "res/budget.hpp"
#include "util/thread_pool.hpp"
#include "util/weight_math.hpp"

namespace sssp::frontier {

namespace {

// Instrument handles are resolved once and cached; every hot-path use
// is behind the metrics_enabled() branch.
struct EngineMetrics {
  obs::Counter& advances;
  obs::Counter& parallel_advances;
  obs::Counter& edges_relaxed;
  obs::Counter& improving;
  obs::Counter& bisects;
  obs::Histogram& frontier_size;
  obs::Histogram& chunk_edges;
  obs::Histogram& thread_utilization;

  static EngineMetrics& get() {
    static EngineMetrics m{
        obs::MetricsRegistry::global().counter("engine.advance.calls"),
        obs::MetricsRegistry::global().counter("engine.advance.parallel"),
        obs::MetricsRegistry::global().counter("engine.advance.edges"),
        obs::MetricsRegistry::global().counter("engine.advance.improving"),
        obs::MetricsRegistry::global().counter("engine.bisect.calls"),
        obs::MetricsRegistry::global().histogram("engine.frontier_size"),
        obs::MetricsRegistry::global().histogram("engine.advance.chunk_edges"),
        obs::MetricsRegistry::global().histogram(
            "engine.advance.thread_utilization")};
    return m;
  }
};

// Headroom-checked high-water reserve (docs/ROBUSTNESS.md, "Resource
// budgets & exhaustion"): when the budget refuses, the reserve is
// skipped and the vector grows on demand — amortized-correct, just
// slower — instead of dying in std::bad_alloc at the reserve.
template <typename T>
void reserve_within_budget(std::vector<T>& vec, std::size_t count) {
  if (count <= vec.capacity()) return;
  if (!res::ResourceBudget::global().check_memory(
          static_cast<std::uint64_t>(count) * sizeof(T),
          "res.engine.alloc")) {
    if (obs::metrics_enabled())
      obs::MetricsRegistry::global().counter("engine.reserve.skipped").add(1);
    return;
  }
  vec.reserve(count);
}

}  // namespace

NearFarEngine::NearFarEngine(const graph::CsrGraph& graph,
                             graph::VertexId source)
    : NearFarEngine(graph, source, Options{}) {}

NearFarEngine::NearFarEngine(const graph::CsrGraph& graph,
                             graph::VertexId source, const Options& options)
    : graph_(&graph),
      source_(source),
      options_(options),
      dist_(graph.num_vertices(), graph::kInfiniteDistance),
      parent_(graph.num_vertices(), graph::kInvalidVertex),
      mark_(graph.num_vertices(), 0) {
  if (source >= graph.num_vertices())
    throw std::invalid_argument("NearFarEngine: source out of range");
  dist_[source] = 0;
  parent_[source] = source;
  frontier_.push_back(source);
}

NearFarEngine::AdvanceResult NearFarEngine::advance_and_filter() {
  {
    // The dedup filter itself is fused into the advance loop (the
    // epoch-stamped mark array); this span covers the standalone part
    // of the filter phase — bitmap epoch maintenance. See
    // docs/OBSERVABILITY.md for how to read the fused trace.
    SSSP_TRACE_SPAN("filter");
    SSSP_PROF_PHASE("filter");
    updated_frontier_.clear();
    reserve_within_budget(updated_frontier_, updated_high_water_);
    ++epoch_;
    if (epoch_ == 0) {  // wrapped: reset marks once every 2^32 iterations
      std::fill(mark_.begin(), mark_.end(), 0);
      epoch_ = 1;
    }
  }
  AdvanceResult result;
  {
    SSSP_TRACE_SPAN("advance");
    SSSP_PROF_PHASE("advance");
    bool parallel =
        options_.parallel && frontier_.size() >= options_.parallel_threshold;
    // Budget preflight BEFORE any mutation: once a parallel advance has
    // partially relaxed (atomic-min already lowered distances), re-
    // running the iteration serially would lose frontier vertices, so
    // the degrade decision can only be taken here, while the iteration
    // state is still untouched. Serial and parallel advances produce
    // identical final distances/parents — only iteration dynamics and
    // scratch footprint differ — which is what makes this safe.
    if (parallel && !parallel_scratch_fits()) {
      parallel = false;
      if (obs::metrics_enabled())
        obs::MetricsRegistry::global()
            .counter("engine.advance.degraded_serial")
            .add(1);
    }
    result = parallel ? advance_parallel() : advance_serial();
  }
  total_improving_ += result.improving_relaxations;
  updated_high_water_ = std::max<std::size_t>(updated_high_water_, result.x3);
  frontier_.clear();
  if (obs::metrics_enabled()) {
    EngineMetrics& m = EngineMetrics::get();
    m.advances.add();
    m.edges_relaxed.add(result.x2);
    m.improving.add(result.improving_relaxations);
    m.frontier_size.record(static_cast<double>(result.x1));
  }
  return result;
}

bool NearFarEngine::parallel_scratch_fits() noexcept {
  const std::size_t x1 = frontier_.size();
  std::uint64_t bytes = 0;
  if (winner_.size() != graph_->num_vertices())
    bytes += static_cast<std::uint64_t>(graph_->num_vertices()) *
             sizeof(std::uint64_t);
  if (edge_prefix_.capacity() < x1 + 1)
    bytes += static_cast<std::uint64_t>(x1 + 1) * sizeof(std::uint64_t);
  if (frontier_dist_.capacity() < x1)
    bytes += static_cast<std::uint64_t>(x1) * sizeof(graph::Distance);
  // Candidate buffers scale with the frontier's out-edges; the exact
  // degree sum is only known after planning, so estimate with the
  // graph-wide average degree.
  const double avg_degree =
      graph_->num_vertices() == 0
          ? 0.0
          : static_cast<double>(graph_->num_edges()) /
                static_cast<double>(graph_->num_vertices());
  bytes += static_cast<std::uint64_t>(static_cast<double>(x1) * avg_degree) *
           sizeof(Candidate);
  return res::ResourceBudget::global().check_memory(bytes, "res.engine.alloc");
}

NearFarEngine::AdvanceResult NearFarEngine::advance_serial() {
  AdvanceResult result;
  result.x1 = frontier_.size();

  for (std::size_t fi = 0; fi < frontier_.size(); ++fi) {
    if (options_.control != nullptr && (fi & 4095u) == 0 &&
        options_.control->should_abort())
      throw util::StopRequested(options_.control->reason());
    const graph::VertexId u = frontier_[fi];
    const auto neighbors = graph_->neighbors(u);
    const auto weights = graph_->weights_of(u);
    result.x2 += neighbors.size();
    const graph::Distance du = dist_[u];
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const graph::VertexId v = neighbors[i];
      const graph::Distance nd = util::saturating_add(du, weights[i]);
      if (nd < dist_[v]) {
        dist_[v] = nd;
        parent_[v] = u;
        ++result.improving_relaxations;
        if (mark_[v] != epoch_) {
          mark_[v] = epoch_;
          updated_frontier_.push_back(v);
        }
      }
    }
  }
  result.x3 = updated_frontier_.size();
  return result;
}

std::uint64_t NearFarEngine::plan_chunks() {
  const std::size_t x1 = frontier_.size();
  frontier_dist_.resize(x1);

  // The planner (frontier/plan.hpp) runs the parallel two-pass
  // prefix sum over the frontier's out-degrees; its snapshot hook
  // captures every frontier vertex's iteration-start distance in the
  // same sweep (synchronous-relaxation semantics: phase A reads only
  // this snapshot, so mid-iteration improvements of a frontier vertex
  // never leak into the same iteration — that is what makes the
  // results schedule-independent).
  const std::uint64_t x2 = build_frontier_plan(
      *graph_, frontier_, edge_prefix_, chunk_begin_, range_base_,
      [&](std::size_t i, graph::VertexId u) { frontier_dist_[i] = dist_[u]; });
  if (obs::metrics_enabled()) {
    EngineMetrics& m = EngineMetrics::get();
    for (std::size_t c = 0; c + 1 < chunk_begin_.size(); ++c)
      m.chunk_edges.record(static_cast<double>(
          edge_prefix_[chunk_begin_[c + 1]] - edge_prefix_[chunk_begin_[c]]));
  }
  return x2;
}

NearFarEngine::AdvanceResult NearFarEngine::advance_parallel() {
  AdvanceResult result;
  result.x1 = frontier_.size();
  util::ThreadPool& pool = util::ThreadPool::global();
  if (winner_.size() != graph_->num_vertices())
    winner_.assign(graph_->num_vertices(), 0);

  // Abort polls sit at phase *boundaries* only: pool workers never see
  // the control object, so a stop request lands between phases, before
  // any of this iteration's writes become externally visible state.
  if (options_.control != nullptr && options_.control->should_abort())
    throw util::StopRequested(options_.control->reason());
  {
    SSSP_TRACE_SPAN("advance.plan");
    SSSP_PROF_PHASE("advance.plan");
    result.x2 = plan_chunks();
  }
  const std::size_t num_chunks = chunk_begin_.size() - 1;
  const bool tally_threads = obs::metrics_enabled();
  if (tally_threads) thread_edges_.assign(pool.size(), 0);

  // Phase A — relax: atomic-min every edge's proposed distance into
  // dist_, claim each improved vertex exactly once via an epoch CAS on
  // the mark array, and log every edge whose proposal met or beat the
  // target's distance when it ran (a CAS win or a tie) in the chunk's
  // candidate list, in rank order. Distances only fall, so every edge
  // that achieves a target's final distance is logged. The claim *set*
  // is schedule-independent (v is claimed iff some edge beats its
  // iteration-start distance); which thread claims is not, and neither
  // is the log, so ordering is resolved in phases B1/B2.
  chunk_candidates_.resize(std::max(chunk_candidates_.size(), num_chunks));
  {
    SSSP_TRACE_SPAN("advance.relax");
    SSSP_PROF_PHASE("advance.relax");
    pool.for_each_chunk(num_chunks, [&](std::size_t c, std::size_t tid) {
      auto& candidates = chunk_candidates_[c];
      candidates.clear();
      const std::size_t begin = chunk_begin_[c];
      const std::size_t end = chunk_begin_[c + 1];
      for (std::size_t i = begin; i < end; ++i) {
        const graph::VertexId u = frontier_[i];
        const graph::Distance du = frontier_dist_[i];
        const std::uint64_t base = edge_prefix_[i];
        const auto neighbors = graph_->neighbors(u);
        const auto weights = graph_->weights_of(u);
        for (std::size_t e = 0; e < neighbors.size(); ++e) {
          const graph::VertexId v = neighbors[e];
          const graph::Distance nd = util::saturating_add(du, weights[e]);
          std::atomic_ref<graph::Distance> dv(dist_[v]);
          graph::Distance current = dv.load(std::memory_order_relaxed);
          bool improved = false;
          while (nd < current) {
            if (dv.compare_exchange_weak(current, nd,
                                         std::memory_order_relaxed)) {
              improved = true;
              break;
            }
          }
          if (!improved && nd != current) continue;
          candidates.push_back({base + e, nd, v, u});
          if (!improved) continue;
          std::atomic_ref<std::uint32_t> mark(mark_[v]);
          std::uint32_t seen = mark.load(std::memory_order_relaxed);
          while (seen != epoch_) {
            if (mark.compare_exchange_weak(seen, epoch_,
                                           std::memory_order_relaxed)) {
              // Sole claimer initializes the winner slot; the phase
              // barrier publishes it to B1.
              winner_[v] = std::numeric_limits<std::uint64_t>::max();
              break;
            }
          }
        }
      }
      if (tally_threads)
        thread_edges_[tid] += edge_prefix_[end] - edge_prefix_[begin];
    });
  }

  if (options_.control != nullptr && options_.control->should_abort())
    throw util::StopRequested(options_.control->reason());

  // Phase B1 — candidates: distances are final now, so compact each
  // chunk's log in place down to the relaxations that achieved their
  // claimed target's final distance, atomic-min-ing the canonical edge
  // rank (frontier order × adjacency order) into the winner slot. The
  // log is a superset of those relaxations and keeps rank order, so
  // the compacted lists and the winner ranks are pure functions of
  // iteration-start state — no schedule dependence survives this phase.
  {
    SSSP_TRACE_SPAN("advance.candidates");
    SSSP_PROF_PHASE("advance.candidates");
    pool.for_each_chunk(num_chunks, [&](std::size_t c, std::size_t) {
      auto& candidates = chunk_candidates_[c];
      std::size_t kept = 0;
      for (const Candidate& cand : candidates) {
        if (mark_[cand.v] != epoch_) continue;  // not improved this iteration
        if (cand.nd != dist_[cand.v]) continue;  // not the final value
        std::atomic_ref<std::uint64_t> w(winner_[cand.v]);
        std::uint64_t cur = w.load(std::memory_order_relaxed);
        while (cand.rank < cur &&
               !w.compare_exchange_weak(cur, cand.rank,
                                        std::memory_order_relaxed)) {
        }
        candidates[kept++] = cand;
      }
      candidates.resize(kept);
    });
  }

  // Phase B2 — deterministic merge: count winners per chunk, exclusive-
  // prefix-sum the counts, write each chunk's winners into its reserved
  // slots. Chunk ranges partition the rank space in order and each list
  // is rank-sorted, so the concatenation is globally ordered by winning
  // edge rank — one canonical order, whatever the thread count or
  // chunking. The winning edge also records the parent.
  {
    SSSP_TRACE_SPAN("advance.emit");
    SSSP_PROF_PHASE("advance.emit");
    chunk_counts_.assign(num_chunks, 0);
    pool.for_each_chunk(num_chunks, [&](std::size_t c, std::size_t) {
      std::uint64_t count = 0;
      for (const Candidate& cand : chunk_candidates_[c])
        if (winner_[cand.v] == cand.rank) ++count;
      chunk_counts_[c] = count;
    });
    chunk_offsets_.assign(num_chunks, 0);
    std::uint64_t total = 0;
    std::uint64_t improving = 0;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      chunk_offsets_[c] = total;
      total += chunk_counts_[c];
      improving += chunk_candidates_[c].size();
    }
    updated_frontier_.resize(total);
    pool.for_each_chunk(num_chunks, [&](std::size_t c, std::size_t) {
      std::uint64_t out = chunk_offsets_[c];
      for (const Candidate& cand : chunk_candidates_[c]) {
        if (winner_[cand.v] != cand.rank) continue;
        updated_frontier_[out++] = cand.v;
        parent_[cand.v] = cand.u;
      }
    });
    result.x3 = total;
    result.improving_relaxations = improving;
  }

  if (tally_threads) {
    EngineMetrics& m = EngineMetrics::get();
    m.parallel_advances.add();
    const std::uint64_t busiest =
        *std::max_element(thread_edges_.begin(), thread_edges_.end());
    if (busiest > 0)
      m.thread_utilization.record(
          static_cast<double>(result.x2) /
          (static_cast<double>(pool.size()) * static_cast<double>(busiest)));
  }
  return result;
}

void NearFarEngine::partition_by_distance(
    const std::vector<graph::VertexId>& input, graph::Distance threshold,
    std::vector<graph::VertexId>& below) {
  below.clear();
  frontier_max_distance_ = 0;
  const std::size_t n = input.size();
  reserve_within_budget(spill_, spill_high_water_);
  if (!options_.parallel || n < options_.parallel_threshold) {
    for (const graph::VertexId v : input) {
      const graph::Distance d = dist_[v];
      if (d < threshold) {
        below.push_back(v);
        frontier_max_distance_ = std::max(frontier_max_distance_, d);
      } else {
        spill_.push_back(v);
      }
    }
    spill_high_water_ = std::max(spill_high_water_, spill_.size());
    return;
  }

  // Count → exclusive-prefix-sum → write: the stable partition runs on
  // the pool but produces exactly the serial output (input order is
  // preserved on both sides).
  util::ThreadPool& pool = util::ThreadPool::global();
  const std::size_t chunks =
      std::max<std::size_t>(1, std::min(n, pool.size() * kRangesPerThread));
  const std::size_t per = (n + chunks - 1) / chunks;
  chunk_counts_.assign(chunks, 0);   // below side
  chunk_counts2_.assign(chunks, 0);  // spill side
  chunk_max_.assign(chunks, 0);
  pool.for_each_chunk(chunks, [&](std::size_t c, std::size_t) {
    const std::size_t begin = std::min(n, c * per);
    const std::size_t end = std::min(n, begin + per);
    std::uint64_t num_below = 0;
    graph::Distance max_below = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const graph::Distance d = dist_[input[i]];
      if (d < threshold) {
        ++num_below;
        max_below = std::max(max_below, d);
      }
    }
    chunk_counts_[c] = num_below;
    chunk_counts2_[c] = (end - begin) - num_below;
    chunk_max_[c] = max_below;
  });
  chunk_offsets_.assign(chunks, 0);
  chunk_offsets2_.assign(chunks, 0);
  std::uint64_t below_total = 0, spill_total = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    chunk_offsets_[c] = below_total;
    chunk_offsets2_[c] = spill_total;
    below_total += chunk_counts_[c];
    spill_total += chunk_counts2_[c];
    frontier_max_distance_ = std::max(frontier_max_distance_, chunk_max_[c]);
  }
  below.resize(below_total);
  const std::size_t spill_base = spill_.size();
  spill_.resize(spill_base + spill_total);
  pool.for_each_chunk(chunks, [&](std::size_t c, std::size_t) {
    const std::size_t begin = std::min(n, c * per);
    const std::size_t end = std::min(n, begin + per);
    std::uint64_t wb = chunk_offsets_[c];
    std::uint64_t ws = spill_base + chunk_offsets2_[c];
    for (std::size_t i = begin; i < end; ++i) {
      const graph::VertexId v = input[i];
      if (dist_[v] < threshold) {
        below[wb++] = v;
      } else {
        spill_[ws++] = v;
      }
    }
  });
  spill_high_water_ = std::max(spill_high_water_, spill_.size());
}

std::uint64_t NearFarEngine::bisect(graph::Distance threshold) {
  SSSP_TRACE_SPAN("bisect");
  SSSP_PROF_PHASE("bisect");
  if (options_.control != nullptr && options_.control->should_abort())
    throw util::StopRequested(options_.control->reason());
  if (obs::metrics_enabled()) EngineMetrics::get().bisects.add();
  // advance_and_filter() left the frontier empty; refill the near side.
  partition_by_distance(updated_frontier_, threshold, frontier_);
  updated_frontier_.clear();
  return frontier_.size();
}

std::uint64_t NearFarEngine::demote(graph::Distance threshold) {
  const std::uint64_t scanned = frontier_.size();
  partition_by_distance(frontier_, threshold, partition_scratch_);
  frontier_.swap(partition_scratch_);
  return scanned;
}

std::uint64_t NearFarEngine::demote_excess(std::size_t keep) {
  if (frontier_.size() <= keep) return 0;
  const std::uint64_t spilled = frontier_.size() - keep;
  spill_.insert(spill_.end(), frontier_.begin() + static_cast<std::ptrdiff_t>(keep),
                frontier_.end());
  spill_high_water_ = std::max(spill_high_water_, spill_.size());
  frontier_.resize(keep);
  frontier_max_distance_ = 0;
  for (const graph::VertexId v : frontier_)
    frontier_max_distance_ = std::max(frontier_max_distance_, dist_[v]);
  return spilled;
}

void NearFarEngine::inject(std::span<const graph::VertexId> vertices) {
  reserve_within_budget(frontier_, frontier_.size() + vertices.size());
  for (const graph::VertexId v : vertices) {
    frontier_.push_back(v);
    frontier_max_distance_ = std::max(frontier_max_distance_, dist_[v]);
  }
}

NearFarEngine::State NearFarEngine::state() && {
  return {std::move(dist_), std::move(parent_), std::move(frontier_),
          total_improving_, frontier_max_distance_};
}

NearFarEngine::State NearFarEngine::state() const& {
  State state;
  state.dist = dist_;
  state.parent = parent_;
  state.frontier = frontier_;
  state.total_improving = total_improving_;
  state.frontier_max_distance = frontier_max_distance_;
  return state;
}

void NearFarEngine::restore(State&& state) {
  const std::size_t n = graph_->num_vertices();
  if (state.dist.size() != n || state.parent.size() != n)
    throw std::invalid_argument(
        "NearFarEngine: restore state does not match graph size");
  for (const graph::VertexId v : state.frontier)
    if (v >= n)
      throw std::invalid_argument(
          "NearFarEngine: restore frontier vertex out of range");
  dist_ = std::move(state.dist);
  parent_ = std::move(state.parent);
  frontier_ = std::move(state.frontier);
  total_improving_ = state.total_improving;
  frontier_max_distance_ = state.frontier_max_distance;
  // Per-advance scratch restarts clean; epoch 0 means the next advance
  // opens epoch 1 against all-zero marks, exactly like a fresh engine.
  std::fill(mark_.begin(), mark_.end(), 0);
  epoch_ = 0;
  updated_frontier_.clear();
  spill_.clear();
}

}  // namespace sssp::frontier
