#include "sssp/near_far.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "frontier/engine.hpp"
#include "frontier/far_queue.hpp"
#include "obs/trace.hpp"
#include "prof/profiler.hpp"

namespace sssp::algo {

SsspResult near_far(const graph::CsrGraph& graph, graph::VertexId source,
                    const NearFarOptions& options) {
  graph::Distance delta = options.delta;
  if (delta == 0) {
    delta = static_cast<graph::Distance>(
        std::max(1.0, std::round(graph.mean_edge_weight())));
  }

  frontier::NearFarEngine::Options engine_options;
  engine_options.parallel = options.parallel;
  engine_options.parallel_threshold = options.parallel_threshold;
  engine_options.control = options.control;
  frontier::NearFarEngine engine(graph, source, engine_options);
  frontier::FarQueue far = frontier::FarQueue::fixed_width(delta);

  SsspResult result;
  result.algorithm = "near-far";
  result.source = source;

  // Current phase: frontier holds vertices with distance < threshold.
  graph::Distance threshold = delta;

  // rebalance_items and far_queue_size model the simulated Gunrock
  // baseline's flat far pile: the live entries the last drain kept plus
  // every entry pushed since. A vertex has at most one live entry — spill
  // and frontier vertices were just improved, staling any older one — so
  // `live` counts the pile's live entries.
  std::uint64_t pile = 0, live = 0;
  std::vector<bool> has_live_entry(graph.num_vertices());
  const auto set_live = [&](graph::VertexId v, bool value) {
    live = live + value - has_live_entry[v];
    has_live_entry[v] = value;
  };

  std::vector<graph::VertexId> refill;
  while (!engine.frontier_empty()) {
    if (options.max_iterations && result.iterations.size() >= options.max_iterations)
      break;
    if (options.control != nullptr) {
      const util::StopReason reason = options.control->poll_iteration(
          engine.total_improving_relaxations());
      if (reason != util::StopReason::kNone) throw util::StopRequested(reason);
    }

    frontier::IterationStats stats;
    stats.delta = static_cast<double>(threshold);

    const auto advance = engine.advance_and_filter();
    stats.x1 = advance.x1;
    stats.x2 = advance.x2;
    stats.x3 = advance.x3;
    stats.improving_relaxations = advance.improving_relaxations;

    stats.x4 = engine.bisect(threshold);
    {
      SSSP_TRACE_SPAN("rebalance");
      SSSP_PROF_PHASE("far_spill");
      for (const graph::VertexId v : engine.frontier()) set_live(v, false);
      for (const graph::VertexId v : engine.spill()) set_live(v, true);
      pile += engine.spill().size();
      far.push_bulk(engine.spill(), engine.distances());
      engine.clear_spill();
    }

    // Stage 4 — bisect-far-queue: when the near queue is exhausted, pull
    // δ buckets until one yields live work and advance the phase past it.
    // All live entries below the new threshold sit in that bucket, in
    // push order: the refill a whole-pile scan would produce.
    if (engine.frontier_empty() && !far.empty()) {
      SSSP_TRACE_SPAN("rebalance");
      SSSP_PROF_PHASE("rebalance");
      refill.clear();
      graph::Distance bound = 0;
      while (refill.empty() && !far.empty())
        bound = far.pull_front_partition(engine.distances(), refill).bound;
      // The pile is scanned for its min live distance, then drained.
      stats.rebalance_items += refill.empty() ? pile : 2 * pile;
      for (const graph::VertexId v : refill) set_live(v, false);
      pile = live;  // 0 when everything was stale
      if (!refill.empty()) {
        threshold = bound == graph::kInfiniteDistance ? bound : bound + 1;
        engine.inject(refill);
      }
    }

    stats.far_queue_size = pile;
    result.iterations.push_back(stats);
  }

  result.improving_relaxations = engine.total_improving_relaxations();
  // Parents are maintained deterministically by both advance modes.
  frontier::NearFarEngine::State final_state = std::move(engine).state();
  result.distances = std::move(final_state.dist);
  result.parents = std::move(final_state.parent);
  return result;
}

}  // namespace sssp::algo
