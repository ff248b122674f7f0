#include "sssp/bellman_ford.hpp"

#include <gtest/gtest.h>

#include "sssp/dijkstra.hpp"
#include "tests/sssp/test_graphs.hpp"

namespace sssp::algo {
namespace {

TEST(BellmanFord, DiamondDistances) {
  const auto g = testing::diamond();
  const SsspResult r = bellman_ford(g, 0);
  EXPECT_EQ(r.distances, dijkstra_distances(g, 0));
  EXPECT_EQ(r.algorithm, "bellman-ford");
}

TEST(BellmanFord, MatchesDijkstraOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto g = testing::random_graph(500, 4.0, 50, seed);
    const auto expected = dijkstra_distances(g, 0);
    const SsspResult r = bellman_ford(g, 0);
    EXPECT_EQ(count_distance_mismatches(r.distances, expected), 0u)
        << "seed " << seed;
  }
}

TEST(BellmanFord, ParallelMatchesSerial) {
  const auto g = testing::random_graph(2000, 5.0, 99, 42);
  const SsspResult serial = bellman_ford(g, 0, {.parallel = false});
  const SsspResult parallel = bellman_ford(g, 0, {.parallel = true});
  EXPECT_EQ(count_distance_mismatches(parallel.distances, serial.distances),
            0u);
}

TEST(BellmanFord, IterationCountBoundedByLongestPath) {
  // Ring of n vertices: exactly n-1 frontier rounds (plus final empty).
  const auto g = testing::ring(64);
  const SsspResult r = bellman_ford(g, 0);
  EXPECT_EQ(r.num_iterations(), 64u);  // last round relaxes into source
}

TEST(BellmanFord, StatsAreConsistent) {
  const auto g = testing::random_graph(300, 3.0, 20, 7);
  const SsspResult r = bellman_ford(g, 0);
  std::uint64_t improving = 0;
  for (const auto& it : r.iterations) {
    EXPECT_LE(it.x3, it.improving_relaxations);
    EXPECT_EQ(it.x4, it.x3);
    improving += it.improving_relaxations;
  }
  EXPECT_EQ(improving, r.improving_relaxations);
  // Every reachable non-source vertex improved at least once.
  EXPECT_GE(r.improving_relaxations, r.reached_count() - 1);
}

TEST(BellmanFord, ZeroWeightCycleYieldsAcyclicParents) {
  // 2 -0-> 0, 0 -0-> 1, 1 -0-> 0: every vertex sits at distance 0 and
  // the 0 <-> 1 cycle is tight in both directions.
  const auto g = graph::build_csr(3, {{2, 0, 0}, {0, 1, 0}, {1, 0, 0}});
  const SsspResult r = bellman_ford(g, 2);
  EXPECT_EQ(r.distances, dijkstra_distances(g, 2));
  EXPECT_EQ(count_tree_violations(g, r), 0u);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    std::vector<graph::VertexId> path;
    ASSERT_NO_THROW(path = reconstruct_path(r, v)) << "vertex " << v;
    ASSERT_FALSE(path.empty()) << "vertex " << v;
    EXPECT_EQ(path.front(), 2u);
    EXPECT_EQ(path.back(), v);
  }
}

TEST(BellmanFord, SourceOnlyGraph) {
  const auto g = graph::build_csr(3, {});
  const SsspResult r = bellman_ford(g, 1);
  EXPECT_EQ(r.distances[1], 0u);
  EXPECT_EQ(r.distances[0], graph::kInfiniteDistance);
  EXPECT_EQ(r.num_iterations(), 1u);
}

TEST(BellmanFord, OutOfRangeSourceThrows) {
  const auto g = testing::ring(4);
  EXPECT_THROW(bellman_ford(g, 9), std::invalid_argument);
}

}  // namespace
}  // namespace sssp::algo
