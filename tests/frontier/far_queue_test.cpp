#include "frontier/far_queue.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace sssp::frontier {
namespace {

using graph::Distance;
using graph::kInfiniteDistance;
using graph::VertexId;

// --- fixed-width layout (static near-far): B_i = (i+1)·δ − 1 ---

TEST(FarQueue, StartsEmpty) {
  FarQueue q = FarQueue::fixed_width(10);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.num_partitions(), 1u);  // only the MAX partition
  q.check_invariants();
}

TEST(FarQueue, RejectsZeroWidth) {
  EXPECT_THROW(FarQueue::fixed_width(0), std::invalid_argument);
}

TEST(FarQueue, DrainMovesEntriesBelowThreshold) {
  FarQueue q = FarQueue::fixed_width(10);
  std::vector<Distance> dist{5, 10, 20};
  q.push(0, 5);
  q.push(1, 10);
  q.push(2, 20);
  std::vector<VertexId> frontier;
  const std::uint64_t scanned = q.pull_below(15, dist, frontier);
  EXPECT_EQ(scanned, 2u);  // the [20, 29] bucket is never touched
  ASSERT_EQ(frontier.size(), 2u);
  EXPECT_EQ(frontier[0], 0u);
  EXPECT_EQ(frontier[1], 1u);
  EXPECT_EQ(q.size(), 1u);  // vertex 2 retained
  q.check_invariants();
}

TEST(FarQueue, DropsStaleEntries) {
  FarQueue q = FarQueue::fixed_width(10);
  std::vector<Distance> dist{3};  // improved since insertion
  q.push(0, 7);
  std::vector<VertexId> frontier;
  q.pull_below(100, dist, frontier);
  EXPECT_TRUE(frontier.empty());
  EXPECT_TRUE(q.empty());
}

TEST(FarQueue, RetainedEntriesSurviveMultipleDrains) {
  FarQueue q = FarQueue::fixed_width(10);
  std::vector<Distance> dist{50};
  q.push(0, 50);
  std::vector<VertexId> frontier;
  q.pull_below(10, dist, frontier);
  EXPECT_TRUE(frontier.empty());
  EXPECT_EQ(q.size(), 1u);
  q.pull_below(60, dist, frontier);
  ASSERT_EQ(frontier.size(), 1u);
  EXPECT_EQ(frontier[0], 0u);
  EXPECT_TRUE(q.empty());
}

TEST(FarQueue, MinLiveDistanceSkipsStale) {
  FarQueue q = FarQueue::fixed_width(10);
  std::vector<Distance> dist{3, 10, 20};
  q.push(0, 7);   // stale (dist is 3)
  q.push(1, 10);  // live
  q.push(2, 20);  // live
  EXPECT_EQ(q.min_live_distance(dist), 10u);
}

TEST(FarQueue, MinLiveDistanceAllStaleIsInfinite) {
  FarQueue q = FarQueue::fixed_width(10);
  std::vector<Distance> dist{1};
  q.push(0, 9);
  EXPECT_EQ(q.min_live_distance(dist), kInfiniteDistance);
}

TEST(FarQueue, MinLiveDistanceEmptyIsInfinite) {
  FarQueue q = FarQueue::fixed_width(10);
  std::vector<Distance> dist;
  EXPECT_EQ(q.min_live_distance(dist), kInfiniteDistance);
}

TEST(FarQueue, DuplicateCopiesOnlyNewestIsLive) {
  FarQueue q = FarQueue::fixed_width(10);
  std::vector<Distance> dist{8};
  q.push(0, 12);  // older copy, now stale
  q.push(0, 8);   // current copy
  std::vector<VertexId> frontier;
  q.pull_below(100, dist, frontier);
  ASSERT_EQ(frontier.size(), 1u);
  EXPECT_EQ(frontier[0], 0u);
}

TEST(FarQueue, ClearEmptiesQueue) {
  FarQueue q = FarQueue::fixed_width(10);
  q.push(0, 1);
  q.clear();
  EXPECT_TRUE(q.empty());
  q.check_invariants();
}

TEST(FarQueue, EveryEntryLandsInItsOwnBucket) {
  FarQueue q = FarQueue::fixed_width(10);
  // Out of order, with a gap: buckets [30,39], [0,9], [10,19] only.
  const std::vector<Distance> dist{35, 3, 12, 39, 10};
  for (VertexId v = 0; v < dist.size(); ++v) q.push(v, dist[v]);
  std::vector<Distance> bounds;
  q.boundary_snapshot(bounds);
  EXPECT_EQ(bounds, (std::vector<Distance>{9, 19, 39, kInfiniteDistance}));
  q.check_invariants();

  // Fronts come off in distance order; each bucket in push order.
  std::vector<VertexId> frontier;
  EXPECT_EQ(q.pull_front_partition(dist, frontier).bound, 9u);
  EXPECT_EQ(frontier, (std::vector<VertexId>{1}));
  frontier.clear();
  EXPECT_EQ(q.pull_front_partition(dist, frontier).bound, 19u);
  EXPECT_EQ(frontier, (std::vector<VertexId>{2, 4}));
  EXPECT_EQ(q.current_lower_bound(), 19u);
  frontier.clear();
  const auto pull = q.pull_front_partition(dist, frontier);
  EXPECT_EQ(pull.bound, 39u);
  EXPECT_TRUE(pull.exhausted);
  EXPECT_EQ(frontier, (std::vector<VertexId>{0, 3}));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.num_partitions(), 1u);
  q.check_invariants();
}

TEST(FarQueue, ConsumedBucketIsForgotten) {
  // A consumed bucket's entry list is reused for the next new bucket; a
  // later push into the consumed range must open a fresh bucket there.
  FarQueue q = FarQueue::fixed_width(10);
  const std::vector<Distance> dist{5, 25, 7};
  q.push(0, dist[0]);
  std::vector<VertexId> frontier;
  q.pull_front_partition(dist, frontier);
  q.push(1, dist[1]);
  q.push(2, dist[2]);
  q.check_invariants();
  std::vector<Distance> bounds;
  q.boundary_snapshot(bounds);
  EXPECT_EQ(bounds, (std::vector<Distance>{9, 29, kInfiniteDistance}));
  frontier.clear();
  q.pull_front_partition(dist, frontier);
  EXPECT_EQ(frontier, (std::vector<VertexId>{2}));
}

TEST(FarQueue, BulkPushMatchesPushLoop) {
  std::vector<Distance> dist(10000);
  std::vector<VertexId> spill(dist.size());
  for (VertexId v = 0; v < dist.size(); ++v) {
    dist[v] = (v * 7919u) % 5000u;
    spill[v] = static_cast<VertexId>(dist.size() - 1 - v);
  }
  FarQueue bulk = FarQueue::fixed_width(64);
  FarQueue loop = FarQueue::fixed_width(64);
  bulk.push_bulk(spill, dist);
  for (const VertexId v : spill) loop.push(v, dist[v]);
  EXPECT_EQ(bulk.state(), loop.state());
  bulk.check_invariants();
}

TEST(FarQueue, BucketBoundsSaturateAtInfinity) {
  constexpr Distance kMax = kInfiniteDistance;
  for (const Distance width : {Distance{1}, Distance{7}, Distance{1} << 31,
                               kMax / 2 + 1, kMax}) {
    FarQueue q = FarQueue::fixed_width(width);
    const std::vector<Distance> dist{kMax - 1, kMax - width / 2, kMax - width,
                                     0, width - 1};
    for (VertexId v = 0; v < dist.size(); ++v) q.push(v, dist[v]);
    q.check_invariants();
    std::vector<Distance> bounds;
    q.boundary_snapshot(bounds);
    EXPECT_EQ(bounds.back(), kMax) << width;
    EXPECT_EQ(bounds.front(), width - 1) << width;  // bucket 0: [0, δ−1]
    // Pulled in distance order: each front bound covers what it yields.
    std::vector<VertexId> frontier;
    Distance last = 0;
    while (!q.empty()) {
      frontier.clear();
      const auto pull = q.pull_front_partition(dist, frontier);
      EXPECT_GE(pull.bound, last) << width;
      for (const VertexId v : frontier) {
        EXPECT_LE(dist[v], pull.bound) << width;
        EXPECT_GE(dist[v], last) << width;
      }
      last = pull.bound;
    }
  }
}

TEST(FarQueue, FixedBoundsDoNotMove) {
  FarQueue q = FarQueue::fixed_width(10);
  q.push(0, 55);
  EXPECT_THROW(q.update_boundary(1.0, 1.0), std::logic_error);
}

// --- Eq. 7 layout (self-tuning): {first_bound, MAX}, tightened by the
// controller ---

TEST(PartitionedFarQueue, InitialLayoutIsTwoPartitions) {
  FarQueue q(50);
  EXPECT_EQ(q.num_partitions(), 2u);
  EXPECT_EQ(q.current_partition_bound(), 50u);
  EXPECT_EQ(q.current_lower_bound(), 0u);
  EXPECT_TRUE(q.empty());
  q.check_invariants();
}

TEST(PartitionedFarQueue, RejectsZeroFirstBound) {
  EXPECT_THROW(FarQueue(0), std::invalid_argument);
}

TEST(PartitionedFarQueue, PushRoutesByDistance) {
  FarQueue q(50);
  q.push(0, 30);   // partition 0 (d <= 50)
  q.push(1, 50);   // partition 0 (boundary inclusive)
  q.push(2, 51);   // partition 1
  q.push(3, 1000000);  // partition 1 (MAX)
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.current_partition_size(), 2u);
  q.check_invariants();
}

TEST(PartitionedFarQueue, PullBelowMovesLiveEntries) {
  FarQueue q(50);
  std::vector<Distance> dist{10, 40, 80};
  q.push(0, 10);
  q.push(1, 40);
  q.push(2, 80);
  std::vector<VertexId> frontier;
  const std::uint64_t scanned = q.pull_below(45, dist, frontier);
  EXPECT_EQ(scanned, 2u);  // only partition 0 intersects [0, 45)
  ASSERT_EQ(frontier.size(), 2u);
  EXPECT_EQ(q.size(), 1u);
  q.check_invariants();
}

TEST(PartitionedFarQueue, PullDropsStaleEntries) {
  FarQueue q(50);
  std::vector<Distance> dist{5};  // improved since push
  q.push(0, 30);
  std::vector<VertexId> frontier;
  q.pull_below(100, dist, frontier);
  EXPECT_TRUE(frontier.empty());
  EXPECT_TRUE(q.empty());
}

TEST(PartitionedFarQueue, PullSkipsPartitionsAboveThreshold) {
  FarQueue q(10);
  std::vector<Distance> dist{5, 500};
  q.push(0, 5);
  q.push(1, 500);
  std::vector<VertexId> frontier;
  // Threshold 8 only touches the first partition: scanned == 1.
  EXPECT_EQ(q.pull_below(8, dist, frontier), 1u);
  EXPECT_EQ(frontier.size(), 1u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(PartitionedFarQueue, ConsumedFrontPartitionIsDropped) {
  FarQueue q(10);
  std::vector<Distance> dist{5};
  q.push(0, 5);
  std::vector<VertexId> frontier;
  q.pull_below(100, dist, frontier);
  // Partition [0,10] drained away; lower bound advanced.
  EXPECT_EQ(q.current_lower_bound(), 10u);
  EXPECT_EQ(q.num_partitions(), 1u);
  EXPECT_EQ(q.current_partition_bound(), kInfiniteDistance);
  q.check_invariants();
}

TEST(PartitionedFarQueue, UpdateBoundaryTightensMonotonically) {
  FarQueue q(1000);
  q.push(0, 100);
  q.push(1, 900);
  // P / alpha = 200: bound should tighten 1000 -> 200.
  const std::uint64_t moved = q.update_boundary(200.0, 1.0);
  EXPECT_EQ(moved, 1u);  // entry at 900 displaced to the next partition
  EXPECT_EQ(q.current_partition_bound(), 200u);
  q.check_invariants();
  // A larger target must NOT grow the bound back (monotone rule).
  EXPECT_EQ(q.update_boundary(100000.0, 1.0), 0u);
  EXPECT_EQ(q.current_partition_bound(), 200u);
}

TEST(PartitionedFarQueue, UpdateBoundaryOnLastPartitionAppendsMax) {
  FarQueue q(10);
  std::vector<Distance> dist{5};
  q.push(0, 5);
  std::vector<VertexId> frontier;
  q.pull_below(100, dist, frontier);  // only the MAX partition remains
  ASSERT_EQ(q.num_partitions(), 1u);
  q.push(1, 50);
  q.update_boundary(30.0, 1.0);  // tightens MAX -> 10 + 30 = 40
  EXPECT_EQ(q.num_partitions(), 2u);
  EXPECT_EQ(q.current_partition_bound(), 40u);
  q.check_invariants();
}

TEST(PartitionedFarQueue, UpdateBoundaryKeepsMinimumWidth) {
  FarQueue q(1000);
  q.push(0, 500);
  // Tiny P/alpha: bound must stay at least lower_bound + 1.
  q.update_boundary(1e-3, 1e6);
  EXPECT_GE(q.current_partition_bound(), 1u);
  q.check_invariants();
}

TEST(PartitionedFarQueue, UpdateBoundaryRejectsBadInputs) {
  FarQueue q(10);
  EXPECT_THROW(q.update_boundary(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(q.update_boundary(10.0, 0.0), std::invalid_argument);
}

TEST(PartitionedFarQueue, MinLiveDistanceSkipsStale) {
  FarQueue q(100);
  std::vector<Distance> dist{3, 60, 700};
  q.push(0, 9);    // stale
  q.push(1, 60);   // live, partition 0
  q.push(2, 700);  // live, partition 1
  EXPECT_EQ(q.min_live_distance(dist), 60u);
}

TEST(PartitionedFarQueue, MinLiveDistanceEmptyIsInfinite) {
  FarQueue q(100);
  std::vector<Distance> dist;
  EXPECT_EQ(q.min_live_distance(dist), kInfiniteDistance);
}

TEST(PartitionedFarQueue, ClearRemovesEverything) {
  FarQueue q(100);
  q.push(0, 5);
  q.push(1, 500);
  q.clear();
  EXPECT_TRUE(q.empty());
  q.check_invariants();
}

TEST(PartitionedFarQueue, PullFrontPartitionDrainsAndAdvances) {
  FarQueue q(100);
  std::vector<Distance> dist{10, 50, 500};
  q.push(0, 10);
  q.push(1, 50);
  q.push(2, 500);
  std::vector<VertexId> frontier;
  const auto pull = q.pull_front_partition(dist, frontier);
  EXPECT_TRUE(pull.exhausted);
  EXPECT_EQ(pull.bound, 100u);
  EXPECT_EQ(pull.scanned, 2u);
  EXPECT_EQ(pull.pulled, 2u);
  EXPECT_EQ(frontier.size(), 2u);
  EXPECT_EQ(q.current_lower_bound(), 100u);  // partition consumed
  EXPECT_EQ(q.size(), 1u);
  q.check_invariants();
}

TEST(PartitionedFarQueue, CountLimitedPullLeavesRemainder) {
  FarQueue q(1000);
  std::vector<Distance> dist(10);
  for (VertexId v = 0; v < 10; ++v) {
    dist[v] = 100 + v;
    q.push(v, dist[v]);
  }
  std::vector<VertexId> frontier;
  const auto pull = q.pull_front_partition(dist, frontier, 4);
  EXPECT_FALSE(pull.exhausted);
  EXPECT_EQ(pull.pulled, 4u);
  EXPECT_EQ(frontier.size(), 4u);
  EXPECT_EQ(q.size(), 6u);
  // The partition (and its floor) stay in place for the remainder.
  EXPECT_EQ(q.current_lower_bound(), 0u);
  q.check_invariants();
  // A second unlimited pull drains the rest.
  const auto rest = q.pull_front_partition(dist, frontier);
  EXPECT_TRUE(rest.exhausted);
  EXPECT_EQ(frontier.size(), 10u);
  EXPECT_TRUE(q.empty());
}

TEST(PartitionedFarQueue, CountLimitCountsLiveEntriesOnly) {
  FarQueue q(1000);
  // Interleave stale and live entries: the limit applies to live pulls.
  std::vector<Distance> dist{5, 100, 5, 100};  // 0 and 2 stale below
  q.push(0, 50);   // stale (dist now 5)
  q.push(1, 100);  // live
  q.push(2, 60);   // stale
  q.push(3, 100);  // live
  std::vector<VertexId> frontier;
  const auto pull = q.pull_front_partition(dist, frontier, 2);
  EXPECT_EQ(pull.pulled, 2u);
  EXPECT_EQ(pull.scanned, 4u);  // scanned through the stale ones
  EXPECT_TRUE(pull.exhausted);
  q.check_invariants();
}

TEST(PartitionedFarQueue, RepeatedTighteningBuildsManyPartitions) {
  FarQueue q(1u << 20);
  for (VertexId v = 0; v < 100; ++v) q.push(v, 1000 + v * 997);
  std::vector<Distance> dist(100);
  for (std::size_t i = 0; i < 100; ++i) dist[i] = 1000 + i * 997;
  for (int round = 0; round < 6; ++round) {
    q.update_boundary(5000.0, 1.0);
    q.check_invariants();
  }
  EXPECT_GE(q.num_partitions(), 2u);
  // All entries still accounted for.
  EXPECT_EQ(q.size(), 100u);
  // And still retrievable in distance order.
  std::vector<VertexId> frontier;
  q.pull_below(kInfiniteDistance, dist, frontier);
  EXPECT_EQ(frontier.size(), 100u);
}

}  // namespace
}  // namespace sssp::frontier
