// Parallel-advance determinism and correctness: the pipeline relaxes
// from an iteration-start snapshot and merges with count → exclusive-
// prefix-sum → write over canonical edge ranks, so the updated
// frontier's ORDERING, the per-iteration X1/X2/X3 statistics, the
// parent tree, and the distances are all bit-identical at any thread
// count, any chunking, and any schedule — not merely "distances exact".
// These tests pin that contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "fault/failpoint.hpp"
#include "frontier/engine.hpp"
#include "graph/builder.hpp"
#include "graph/types.hpp"
#include "tests/sssp/test_graphs.hpp"
#include "util/thread_pool.hpp"

namespace sssp::frontier {
namespace {

using graph::kInfiniteDistance;

// Runs a Bellman-Ford-style sweep (bisect keeps everything) and records
// everything the determinism contract covers.
struct SweepTrace {
  std::vector<std::array<std::uint64_t, 4>> stats;  // x1, x2, x3, improving
  std::vector<std::vector<graph::VertexId>> frontiers;  // ordering included
  std::vector<graph::Distance> distances;
  std::vector<graph::VertexId> parents;

  bool operator==(const SweepTrace&) const = default;
};

SweepTrace run_sweep(const graph::CsrGraph& g, graph::VertexId source,
                     const NearFarEngine::Options& options) {
  NearFarEngine engine(g, source, options);
  SweepTrace trace;
  while (!engine.frontier_empty()) {
    const auto advance = engine.advance_and_filter();
    trace.stats.push_back(
        {advance.x1, advance.x2, advance.x3, advance.improving_relaxations});
    engine.bisect(kInfiniteDistance);
    trace.frontiers.emplace_back(engine.frontier().begin(),
                                 engine.frontier().end());
  }
  trace.distances = engine.distances();
  trace.parents = engine.parents();
  return trace;
}

// Parent tree exactness: every reached vertex's parent edge achieves
// its distance, the source is its own parent, unreached have none.
void expect_parents_exact(const graph::CsrGraph& g, graph::VertexId source,
                          const SweepTrace& trace) {
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (trace.distances[v] == kInfiniteDistance) {
      EXPECT_EQ(trace.parents[v], graph::kInvalidVertex) << "vertex " << v;
      continue;
    }
    if (v == source) {
      EXPECT_EQ(trace.parents[v], source);
      continue;
    }
    const graph::VertexId p = trace.parents[v];
    ASSERT_NE(p, graph::kInvalidVertex) << "vertex " << v;
    const auto neighbors = g.neighbors(p);
    const auto weights = g.weights_of(p);
    bool achieves = false;
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      if (neighbors[i] == v &&
          trace.distances[p] + weights[i] == trace.distances[v]) {
        achieves = true;
        break;
      }
    }
    EXPECT_TRUE(achieves) << "parent edge " << p << "->" << v
                          << " does not achieve dist[" << v << "]";
  }
}

class ParallelEngineTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelEngineTest, ParallelSweepBitIdenticalAcrossThreadCounts) {
  const std::uint64_t seed = GetParam();
  const auto g = algo::testing::random_graph(3000, 6.0, 99, seed);

  util::ThreadPool::set_global_threads(1);
  const SweepTrace reference =
      run_sweep(g, 0, {.parallel = true, .parallel_threshold = 1});
  for (const std::size_t threads : {2, 4, 8}) {
    util::ThreadPool::set_global_threads(threads);
    const SweepTrace trace =
        run_sweep(g, 0, {.parallel = true, .parallel_threshold = 1});
    EXPECT_EQ(trace, reference) << "threads=" << threads;
  }
  util::ThreadPool::set_global_threads(0);
}

TEST_P(ParallelEngineTest, ParallelSweepDistancesExact) {
  const std::uint64_t seed = GetParam();
  const auto g = algo::testing::random_graph(3000, 6.0, 99, seed);

  const SweepTrace serial = run_sweep(g, 0, {.parallel = false});
  // Threshold 1: every advance takes the parallel path.
  const SweepTrace parallel =
      run_sweep(g, 0, {.parallel = true, .parallel_threshold = 1});

  EXPECT_EQ(parallel.distances, serial.distances);
  expect_parents_exact(g, 0, serial);
  expect_parents_exact(g, 0, parallel);
  // The first iteration starts from an identical frontier ({source}), so
  // its X1/X2 are schedule-independent set properties.
  ASSERT_FALSE(parallel.stats.empty());
  EXPECT_EQ(parallel.stats.front()[0], serial.stats.front()[0]);
  EXPECT_EQ(parallel.stats.front()[1], serial.stats.front()[1]);
  // Filter dedup bounds hold in every iteration.
  for (const auto& it : parallel.stats) {
    EXPECT_LE(it[2], it[1]);  // x3 <= x2
  }
}

TEST_P(ParallelEngineTest, MixedModeDistancesExact) {
  const std::uint64_t seed = GetParam();
  const auto g = algo::testing::random_graph(3000, 6.0, 99, seed ^ 0xF00);
  const SweepTrace serial = run_sweep(g, 5, {.parallel = false});
  // Mid threshold: small frontiers run serial, large ones parallel.
  const SweepTrace mixed =
      run_sweep(g, 5, {.parallel = true, .parallel_threshold = 512});
  EXPECT_EQ(mixed.distances, serial.distances);
  expect_parents_exact(g, 5, mixed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEngineTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(ParallelEngine, UpdatedFrontierIsDuplicateFree) {
  const auto g = algo::testing::random_graph(4000, 8.0, 9, 3);
  NearFarEngine engine(g, 0, {.parallel = true, .parallel_threshold = 1});
  while (!engine.frontier_empty()) {
    engine.advance_and_filter();
    engine.bisect(kInfiniteDistance);
    std::vector<graph::VertexId> frontier(engine.frontier().begin(),
                                          engine.frontier().end());
    std::sort(frontier.begin(), frontier.end());
    EXPECT_EQ(std::adjacent_find(frontier.begin(), frontier.end()),
              frontier.end());
  }
}

// Unit-weight layered complete bipartite digraph: the source feeds
// every vertex of layer 0, and every vertex of layer l feeds every
// vertex of layer l + 1, so each vertex past layer 0 is reached by
// `width` equally short edges spread over many chunks. The first vertex
// of each layer — the first of its frontier — also carries `back_edges`
// parallel edges to the source, listed ahead of its forward edges.
// They never improve anything, but they hold back the thread that walks
// the rank-first achieving edges, so at pool sizes above one the other
// chunks usually win the CASes on the next layer and the rank-first
// edges only tie.
graph::CsrGraph layered_bipartite(graph::VertexId layers,
                                  graph::VertexId width,
                                  graph::VertexId back_edges) {
  std::vector<graph::Edge> edges;
  for (graph::VertexId b = 0; b < width; ++b) edges.push_back({0, 1 + b, 1});
  for (graph::VertexId l = 0; l < layers; ++l) {
    const graph::VertexId first = 1 + l * width;
    for (graph::VertexId k = 0; k < back_edges; ++k)
      edges.push_back({first, 0, 1});
    if (l + 1 == layers) continue;
    for (graph::VertexId a = 0; a < width; ++a)
      for (graph::VertexId b = 0; b < width; ++b)
        edges.push_back({first + a, first + width + b, 1});
  }
  return graph::build_csr(1 + layers * width, std::move(edges));
}

// Runs one advance and checks the merge contract, recomputed from first
// principles: the updated frontier is ordered by each vertex's winning
// edge rank (frontier position × adjacency order) — the first edge that
// achieves its final, improved distance — that edge's source is the
// vertex's parent, and improving_relaxations counts every achieving
// edge, ties included.
void expect_winning_edge_rank_step(const graph::CsrGraph& g,
                                   NearFarEngine& engine) {
  const std::vector<graph::VertexId> frontier(engine.frontier().begin(),
                                              engine.frontier().end());
  const std::vector<graph::Distance> dist_before = engine.distances();
  const auto advance = engine.advance_and_filter();
  const auto& dist_after = engine.distances();

  std::vector<graph::VertexId> expected;
  std::uint64_t achieving = 0;
  std::vector<char> emitted(g.num_vertices(), 0);
  for (const graph::VertexId u : frontier) {
    const auto neighbors = g.neighbors(u);
    const auto weights = g.weights_of(u);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const graph::VertexId v = neighbors[i];
      if (dist_after[v] >= dist_before[v] ||
          dist_before[u] + weights[i] != dist_after[v])
        continue;
      ++achieving;
      if (emitted[v]) continue;
      emitted[v] = 1;
      expected.push_back(v);
      EXPECT_EQ(engine.parents()[v], u) << "vertex " << v;
    }
  }
  EXPECT_EQ(advance.improving_relaxations, achieving);
  engine.bisect(kInfiniteDistance);
  const std::vector<graph::VertexId> actual(engine.frontier().begin(),
                                            engine.frontier().end());
  EXPECT_EQ(actual, expected);
}

TEST(ParallelEngine, UpdatedFrontierOrderIsWinningEdgeRankOrder) {
  const auto g = algo::testing::random_graph(2000, 7.0, 50, 11);
  util::ThreadPool::set_global_threads(4);

  NearFarEngine engine(g, 0, {.parallel = true, .parallel_threshold = 1});
  // A couple of warm-up iterations so the frontier is interesting.
  for (int i = 0; i < 2 && !engine.frontier_empty(); ++i) {
    engine.advance_and_filter();
    engine.bisect(kInfiniteDistance);
  }
  ASSERT_FALSE(engine.frontier_empty()) << "graph too small";
  expect_winning_edge_rank_step(g, engine);

  // Tie-heavy input: every later-layer vertex is reached by hundreds of
  // equal-distance edges racing from different chunks, so the winner
  // must be the first achieving edge in rank order, not the first one
  // whose CAS landed.
  const auto ties = layered_bipartite(3, 256, 1u << 20);
  for (const std::size_t threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    util::ThreadPool::set_global_threads(threads);
    NearFarEngine tie_engine(ties, 0,
                             {.parallel = true, .parallel_threshold = 1});
    while (!tie_engine.frontier_empty())
      expect_winning_edge_rank_step(ties, tie_engine);
  }
  util::ThreadPool::set_global_threads(0);
}

// Memory-budget degrade (docs/ROBUSTNESS.md, "Resource budgets &
// exhaustion"): when the parallel scratch preflight is refused, the
// engine falls back to the serial advance *before* mutating anything —
// the sweep completes with exact distances and a valid parent tree
// (the serial advance breaks parent ties differently, so parents are
// exact but not byte-identical to the parallel run's).
TEST(ParallelEngine, BudgetRefusalDegradesToSerialWithIdenticalResults) {
  const auto g = algo::testing::random_graph(3000, 6.0, 99, 5);
  util::ThreadPool::set_global_threads(4);
  const NearFarEngine::Options options{.parallel = true,
                                       .parallel_threshold = 1};
  const SweepTrace reference = run_sweep(g, 0, options);

  fault::FailpointRegistry::global().arm("res.engine.alloc");
  const SweepTrace degraded = run_sweep(g, 0, options);
  fault::FailpointRegistry::global().disarm_all();

  EXPECT_EQ(degraded.distances, reference.distances);
  expect_parents_exact(g, 0, degraded);
  util::ThreadPool::set_global_threads(0);
}

}  // namespace
}  // namespace sssp::frontier
