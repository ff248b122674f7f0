// Randomized property tests ("fuzz"):
//
// 1. The near-far engine produces exact Dijkstra distances under ANY
//    threshold policy — including adversarial random walks that demote,
//    re-pull, and jump erratically. This is the invariant that makes
//    the whole self-tuning design safe (DESIGN.md Section 5).
//
// 2. The far queue, in both layouts, is observably equivalent to a flat
//    pile scanned whole under random push/pull interleavings: the same
//    vertices come out for the same thresholds, regardless of boundary
//    maintenance.
// 3. Static near-far is exact under adversarial weights (all zero, near
//    2^32 − 1, all equal) at δ ∈ {1, mean, 2^31}.
// 4. Control-plane fault injection: with failpoints feeding NaN/Inf
//    into the controller's models and stats pipeline, the self-tuning
//    solver still produces exact Dijkstra distances (the engine
//    invariant above makes the control plane non-critical for
//    correctness) and the self-healing monitor records the
//    degradation (docs/ROBUSTNESS.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include "core/self_tuning.hpp"
#include "fault/failpoint.hpp"
#include "frontier/engine.hpp"
#include "frontier/far_queue.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/near_far.hpp"
#include "tests/sssp/test_graphs.hpp"
#include "util/rng.hpp"
#include "verify/certifier.hpp"

namespace sssp {
namespace {

using graph::Distance;
using graph::kInfiniteDistance;
using graph::VertexId;

class RandomPolicyFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPolicyFuzz, EngineExactUnderAdversarialThresholds) {
  const std::uint64_t seed = GetParam();
  util::Xoshiro256 rng(seed);
  const auto g = algo::testing::random_graph(
      400 + rng.next_below(800), 1.0 + 6.0 * rng.next_double(), 99, seed);
  const auto source = static_cast<VertexId>(rng.next_below(g.num_vertices()));
  const auto expected = algo::dijkstra_distances(g, source);

  frontier::NearFarEngine engine(g, source);
  // Odd seeds drive the Eq. 7 layout (with boundary maintenance), even
  // seeds the fixed δ buckets.
  const bool eq7 = seed % 2 == 1;
  frontier::FarQueue far =
      eq7 ? frontier::FarQueue(1 + rng.next_below(5000))
          : frontier::FarQueue::fixed_width(1 + rng.next_below(500));
  std::vector<VertexId> refill;
  Distance threshold = 1 + rng.next_below(50);

  std::size_t guard = 0;
  const std::size_t guard_limit = 50 * g.num_vertices() + 1000;
  while (!engine.frontier_empty() && ++guard < guard_limit) {
    engine.advance_and_filter();

    // Adversarial threshold move: grow, shrink, or jump randomly.
    switch (rng.next_below(4)) {
      case 0:  // multiplicative growth
        threshold = threshold + 1 + threshold / 2;
        break;
      case 1:  // harsh shrink
        threshold = std::max<Distance>(1, threshold / 3);
        break;
      case 2:  // random jump within the plausible distance range
        threshold = 1 + rng.next_below(100 * 100);
        break;
      default:  // hold
        break;
    }

    engine.bisect(threshold);
    far.push_bulk(engine.spill(), engine.distances());
    engine.clear_spill();

    // Occasionally demote even further after bisect.
    if (rng.next_below(3) == 0) {
      const Distance demote_to = std::max<Distance>(1, threshold / 2);
      far.lower_floor(demote_to);
      engine.demote(demote_to);
      for (const VertexId v : engine.spill()) far.push(v, engine.distance(v));
      engine.clear_spill();
    }
    if (eq7 && rng.next_below(4) == 0 && !far.empty())
      far.update_boundary(1.0 + rng.next_below(5000),
                          0.001 + rng.next_double() * 10.0);

    // Forced progress, as all algorithms implement it.
    if (engine.frontier_empty() && !far.empty()) {
      const Distance next_live = far.min_live_distance(engine.distances());
      if (next_live == kInfiniteDistance) {
        far.clear();
      } else {
        threshold = std::max(threshold, next_live + 1 + rng.next_below(200));
        refill.clear();
        far.pull_below(threshold, engine.distances(), refill);
        engine.inject(refill);
      }
    }
  }
  ASSERT_LT(guard, guard_limit) << "policy failed to terminate";
  far.check_invariants();
  EXPECT_EQ(algo::count_distance_mismatches(engine.distances(), expected), 0u)
      << "seed " << seed;
}

// The reference: one flat pile, scanned whole on every drain.
struct FlatPile {
  std::vector<frontier::FarEntry> entries;

  void drain_below(Distance threshold, const std::vector<Distance>& dist,
                   std::vector<VertexId>& out) {
    std::size_t keep = 0;
    for (const frontier::FarEntry& entry : entries) {
      if (dist[entry.vertex] != entry.distance) continue;  // stale
      if (entry.distance < threshold) {
        out.push_back(entry.vertex);
      } else {
        entries[keep++] = entry;
      }
    }
    entries.resize(keep);
  }
};

TEST_P(RandomPolicyFuzz, PartitionedQueueMatchesFlatQueue) {
  const std::uint64_t seed = GetParam();
  util::Xoshiro256 rng(seed ^ 0xABCD);

  const std::size_t n = 2000;
  // Distances evolve downward over time, creating stale entries in every
  // structure identically.
  std::vector<Distance> dist(n);
  for (auto& d : dist) d = 100 + rng.next_below(100000);

  frontier::FarQueue partitioned(1 + rng.next_below(5000));
  frontier::FarQueue bucketed =
      frontier::FarQueue::fixed_width(1 + rng.next_below(5000));
  FlatPile flat;

  const auto expect_same_pull = [&](Distance threshold, int round) {
    std::vector<VertexId> from_partitioned, from_bucketed, from_flat;
    partitioned.pull_below(threshold, dist, from_partitioned);
    bucketed.pull_below(threshold, dist, from_bucketed);
    flat.drain_below(threshold, dist, from_flat);
    std::sort(from_partitioned.begin(), from_partitioned.end());
    std::sort(from_bucketed.begin(), from_bucketed.end());
    std::sort(from_flat.begin(), from_flat.end());
    EXPECT_EQ(from_partitioned, from_flat) << "round " << round;
    EXPECT_EQ(from_bucketed, from_flat) << "round " << round;
    partitioned.check_invariants();
    bucketed.check_invariants();
  };

  for (int round = 0; round < 200; ++round) {
    const auto op = rng.next_below(10);
    if (op < 5) {  // push a batch
      for (int i = 0; i < 20; ++i) {
        const auto v = static_cast<VertexId>(rng.next_below(n));
        partitioned.push(v, dist[v]);
        bucketed.push(v, dist[v]);
        flat.entries.push_back({v, dist[v]});
      }
    } else if (op < 7) {  // improve some distances (stale-ify entries)
      for (int i = 0; i < 10; ++i) {
        const auto v = static_cast<VertexId>(rng.next_below(n));
        if (dist[v] > 1) dist[v] -= 1 + rng.next_below(dist[v] - 1);
      }
    } else if (op < 9) {  // pull below a random threshold
      expect_same_pull(1 + rng.next_below(120000), round);
    } else {  // boundary maintenance (must not change observable content)
      partitioned.update_boundary(1.0 + rng.next_below(5000),
                                  0.001 + rng.next_double() * 10.0);
      partitioned.check_invariants();
    }
  }

  // Final drain: identical live content.
  expect_same_pull(kInfiniteDistance, 200);
  EXPECT_TRUE(partitioned.empty());
  EXPECT_TRUE(bucketed.empty());
}

// Static near-far's phase change, at distances just below
// kInfiniteDistance where (i+1)·δ − 1 saturates: pulling front buckets
// until one yields live work must return exactly what a whole-pile scan
// to that bucket's bound would, in the same order.
TEST_P(RandomPolicyFuzz, BucketedPhaseChangeMatchesFlatScanNearInfinity) {
  const std::uint64_t seed = GetParam();
  util::Xoshiro256 rng(seed ^ 0x1F1F);
  const std::size_t n = 1000;
  for (const Distance width :
       {Distance{1}, 1 + rng.next_below(1000), Distance{1} << 31}) {
    const Distance span = std::min<Distance>(width * 64, Distance{1} << 40);
    std::vector<Distance> dist(n);
    for (auto& d : dist) d = kInfiniteDistance - 1 - rng.next_below(span);
    frontier::FarQueue bucketed = frontier::FarQueue::fixed_width(width);
    FlatPile flat;
    for (int round = 0; round < 200; ++round) {
      const auto op = rng.next_below(10);
      if (op < 5) {
        for (int i = 0; i < 20; ++i) {
          const auto v = static_cast<VertexId>(rng.next_below(n));
          bucketed.push(v, dist[v]);
          flat.entries.push_back({v, dist[v]});
        }
      } else if (op < 7) {
        for (int i = 0; i < 10; ++i) {
          const auto v = static_cast<VertexId>(rng.next_below(n));
          dist[v] -= rng.next_below(std::max<Distance>(2, width / 2));
        }
      } else {
        Distance next_live = kInfiniteDistance;
        for (const frontier::FarEntry& entry : flat.entries)
          if (dist[entry.vertex] == entry.distance)
            next_live = std::min(next_live, entry.distance);
        std::vector<VertexId> refill, expected;
        Distance bound = 0;
        while (refill.empty() && !bucketed.empty())
          bound = bucketed.pull_front_partition(dist, refill).bound;
        if (next_live == kInfiniteDistance) {
          EXPECT_TRUE(refill.empty()) << "width " << width;
          flat.entries.clear();
          continue;
        }
        EXPECT_LE(next_live, bound) << "width " << width;
        EXPECT_TRUE(bound == kInfiniteDistance || bound - next_live < width)
            << "width " << width;
        flat.drain_below(
            bound == kInfiniteDistance ? kInfiniteDistance : bound + 1, dist,
            expected);
        EXPECT_EQ(refill, expected) << "width " << width << " round " << round;
        bucketed.check_invariants();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPolicyFuzz,
                         ::testing::Range<std::uint64_t>(1, 21));

// Static near-far under adversarial weights: zero-weight edges (every
// vertex in one bucket), weights near 2^32 − 1 (distances far past any
// 32-bit bucket bound), and one weight everywhere (wall-to-wall ties).
class StaticNearFarFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StaticNearFarFuzz, ExactUnderAdversarialWeights) {
  const std::uint64_t seed = GetParam();
  util::Xoshiro256 rng(seed ^ 0x5A7F);
  const std::size_t n = 300 + rng.next_below(700);
  const auto m = static_cast<std::size_t>(n * (1.0 + 5.0 * rng.next_double()));
  constexpr graph::Weight kTop = std::numeric_limits<graph::Weight>::max();
  const graph::Weight equal = static_cast<graph::Weight>(rng.next_range(1, 9));
  const std::vector<std::pair<const char*, std::function<graph::Weight()>>>
      weightings = {
          {"zero", [] { return graph::Weight{0}; }},
          {"near-max",
           [&] { return static_cast<graph::Weight>(kTop - rng.next_below(4)); }},
          {"equal", [&] { return equal; }},
      };
  for (const auto& [name, weight] : weightings) {
    std::vector<graph::Edge> edges;
    edges.reserve(m);
    for (std::size_t i = 0; i < m; ++i)
      edges.push_back({static_cast<VertexId>(rng.next_below(n)),
                       static_cast<VertexId>(rng.next_below(n)), weight()});
    const auto g = graph::build_csr(n, std::move(edges));
    const auto source = static_cast<VertexId>(rng.next_below(n));
    const auto expected = algo::dijkstra_distances(g, source);
    for (const Distance delta : {Distance{1}, Distance{0} /* mean */,
                                 Distance{1} << 31}) {
      const algo::SsspResult result = algo::near_far(g, source, {.delta = delta});
      EXPECT_EQ(algo::count_distance_mismatches(result.distances, expected), 0u)
          << name << " delta=" << delta << " seed " << seed;
      const verify::Certificate cert = verify::certify(g, result);
      EXPECT_TRUE(cert.certified)
          << name << " delta=" << delta << " seed " << seed << ": "
          << cert.summary();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaticNearFarFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- control-plane fault injection ---

class ControlPlaneFaultInjection
    : public ::testing::TestWithParam<const char*> {
 protected:
  // Failpoints are process-global; never leak an armed one into the
  // suites that share this binary.
  void TearDown() override { fault::FailpointRegistry::global().disarm_all(); }
};

TEST_P(ControlPlaneFaultInjection, DistancesExactUnderInjectedFaults) {
  const auto g = algo::testing::random_graph(900, 5.0, 99, 1234);
  const graph::VertexId source = 3;
  const auto expected = algo::dijkstra_distances(g, source);

  fault::FailpointRegistry::global().arm(GetParam());
  core::SelfTuningOptions options;
  options.set_point = 500.0;
  const auto result = core::self_tuning_sssp(g, source, options);
  const std::uint64_t fires = fault::FailpointRegistry::global().total_fires();
  fault::FailpointRegistry::global().disarm_all();

  EXPECT_GT(fires, 0u) << "failpoint never fired: " << GetParam();
  EXPECT_EQ(algo::count_distance_mismatches(result.distances, expected), 0u)
      << "spec " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Failpoints, ControlPlaneFaultInjection,
    ::testing::Values("controller.x4.nan",        // every plan suppressed
                      "controller.far.nan",       // Inf far-queue stats
                      "controller.observe.nan",   // poisoned ADVANCE input
                      "sgd.observe.nan",          // poisoned inside the SGD
                      "controller.x4.nan=0.4,7",  // intermittent corruption
                      "sgd.observe.nan=3"));      // every 3rd observation

TEST(ControlPlaneFaultInjection2, SustainedGarbageDegradesAndIsRecorded) {
  const auto g = algo::testing::random_graph(900, 5.0, 99, 1234);
  const graph::VertexId source = 3;
  const auto expected = algo::dijkstra_distances(g, source);

  fault::FailpointRegistry::global().arm("controller.x4.nan");
  core::SelfTuningOptions options;
  options.set_point = 500.0;
  const auto result = core::self_tuning_sssp(g, source, options);
  fault::FailpointRegistry::global().disarm_all();

  ASSERT_EQ(algo::count_distance_mismatches(result.distances, expected), 0u);
  // The health monitor saw the garbage, degraded once (the stream never
  // goes clean, so no recovery), and the per-iteration flag marks the
  // degraded tail of the run.
  EXPECT_GT(result.controller_rejected_inputs, 0u);
  EXPECT_EQ(result.controller_degradations, 1u);
  EXPECT_EQ(result.controller_recoveries, 0u);
  EXPECT_TRUE(result.iterations.back().controller_degraded);
  EXPECT_FALSE(result.iterations.front().controller_degraded);
}

TEST(ControlPlaneFaultInjection2, CleanRunStaysAdaptive) {
  const auto g = algo::testing::random_graph(900, 5.0, 99, 1234);
  core::SelfTuningOptions options;
  options.set_point = 500.0;
  const auto result = core::self_tuning_sssp(g, 3, options);
  EXPECT_EQ(result.controller_degradations, 0u);
  EXPECT_EQ(result.controller_rejected_inputs, 0u);
  for (const auto& it : result.iterations)
    EXPECT_FALSE(it.controller_degraded);
}

}  // namespace
}  // namespace sssp
