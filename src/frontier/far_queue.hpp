// The far queue: vertices whose tentative distance exceeds the current
// threshold, postponed for later phases (Davidson et al.), kept as
// partitions ordered by distance (paper Section 4.6). Partition i holds
// entries with B_{i-1} < d <= B_i, the last bound is MAX, and a pull
// touches only the partitions it needs. Two layouts:
//   * Eq. 7 (self-tuning): seeded {first_bound, MAX}; the controller
//     tightens the current bound to B_{i-1} + P/alpha (never raising it)
//     so no single pull exceeds the set-point.
//   * Fixed width δ (static near-far): Eq. 7 with the step frozen,
//     B_i = (i+1)·δ − 1. A bucket is created when its first entry
//     arrives, so every entry lands in its own bucket, in push order.
// An entry stores its distance at push; once the vertex's distance
// improves the copy is stale, and it is dropped when pulled.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace sssp::frontier {

struct FarEntry {
  graph::VertexId vertex;
  graph::Distance distance;  // tentative distance when enqueued

  friend bool operator==(const FarEntry&, const FarEntry&) = default;
};

class FarQueue {
 public:
  // The Eq. 7 layout {first_bound, MAX} (Section 4.6: "two partitions
  // with their upper bounds initialized to average edge weight and
  // MAX_INT"). first_bound must be positive.
  explicit FarQueue(graph::Distance first_bound);

  // The fixed layout B_i = (i+1)·delta − 1, the last bucket's bound
  // saturating at MAX. delta must be positive; update_boundary() throws.
  static FarQueue fixed_width(graph::Distance delta);

  void push(graph::VertexId v, graph::Distance d);

  // Bulk push of an engine spill: entry i is (vertices[i],
  // current_distances[vertices[i]]), each partition receiving its
  // entries in input order. On the Eq. 7 layout large spills are
  // classified on the thread pool (count → exclusive-prefix-sum →
  // write), identical at any thread count; the fixed layout pushes
  // serially, since a push may create its bucket.
  void push_bulk(std::span<const graph::VertexId> vertices,
                 std::span<const graph::Distance> current_distances);

  // Moves live entries with distance < threshold into `frontier`,
  // dropping stale ones met along the way; scans only the partitions
  // that intersect [0, threshold). Returns the entries scanned.
  std::uint64_t pull_below(graph::Distance threshold,
                           std::span<const graph::Distance> current_distances,
                           std::vector<graph::VertexId>& frontier);

  // The bisect-far-queue stage: drains the current partition, appending
  // up to max_live live entries to `frontier` and dropping stale ones. A
  // consumed partition is removed in O(1) amortized; a pull stopped by
  // the limit leaves the rest (exhausted == false). The limit matters
  // when ties make a partition indivisible, e.g. a BFS level.
  struct PullResult {
    graph::Distance bound = 0;
    std::uint64_t scanned = 0;
    std::uint64_t pulled = 0;
    bool exhausted = false;  // partition fully consumed and removed
  };
  PullResult pull_front_partition(
      std::span<const graph::Distance> current_distances,
      std::vector<graph::VertexId>& frontier,
      std::uint64_t max_live = std::numeric_limits<std::uint64_t>::max());

  // Eq. 7: tighten the current partition's upper bound toward
  // lower_bound + set_point / alpha (never raising it). Entries above
  // the new bound move to the next partition, appending a fresh MAX
  // partition when the current one is the last. Returns entries moved.
  std::uint64_t update_boundary(double set_point, double alpha);

  std::size_t size() const noexcept { return total_entries_; }
  bool empty() const noexcept { return total_entries_ == 0; }
  std::size_t num_partitions() const noexcept {
    return partitions_.size() - head_;
  }

  // Current (first) partition state, for the Eq. 8 bootstrap.
  std::size_t current_partition_size() const {
    return lists_[partitions_[head_].list].size();
  }
  graph::Distance current_partition_bound() const {
    return partitions_[head_].upper_bound;
  }
  graph::Distance current_lower_bound() const noexcept { return lower_bound_; }

  // Smallest live distance across all partitions (INF if none).
  graph::Distance min_live_distance(
      std::span<const graph::Distance> current_distances) const;

  // Lowers the floor (the current partition's implicit lower bound) when
  // the rebalancer demotes frontier vertices below consumed boundaries,
  // so Eq. 7 can subdivide that range again. Never raises it.
  void lower_floor(graph::Distance new_floor) noexcept {
    lower_bound_ = std::min(lower_bound_, new_floor);
  }

  // Drops all entries (used when every remaining entry is stale).
  void clear();

  // Copies the partition upper bounds (ascending, last == MAX) into
  // `out` — the invariant auditor's Eq. 7 monotonicity input.
  void boundary_snapshot(std::vector<graph::Distance>& out) const {
    out.clear();
    for (const Partition& partition : live())
      out.push_back(partition.upper_bound);
  }

  // Throws unless bounds strictly increase, the last is MAX, and every
  // entry lies within its partition (on the fixed layout: its δ bucket).
  void check_invariants() const;

  // Complete serializable state (checkpoint/resume): the floor, every
  // partition's upper bound, and every entry.
  struct State {
    graph::Distance lower_bound = 0;
    std::vector<graph::Distance> bounds;  // one per partition, ascending
    std::vector<std::vector<FarEntry>> entries;  // aligned

    friend bool operator==(const State&, const State&) = default;
  };
  State state() const;
  // Validated restore: throws std::invalid_argument on a malformed
  // snapshot (shape mismatch, or a state check_invariants() rejects).
  void restore(State&& state);

 private:
  // The ordered index is trivially copyable, so creating a δ bucket
  // mid-queue is one memmove; entries live in lists_[list].
  struct Partition {
    graph::Distance upper_bound;
    std::uint32_t list;
  };

  FarQueue() = default;

  // The partitions in order, current first.
  std::span<const Partition> live() const noexcept {
    return std::span(partitions_).subspan(head_);
  }
  std::vector<FarEntry>& entries_of(std::size_t i) {
    return lists_[partitions_[head_ + i].list];
  }
  // An empty entry list: a recycled one, or a new one.
  std::uint32_t take_list();
  // Removes the current partition (never the last) in O(1) amortized.
  void pop_front();
  // Removes consumed (empty, non-final) partitions from the front.
  void drop_empty_front();
  std::size_t partition_index_for(graph::Distance d) const;
  // The push target for distance d; on the fixed layout d's bucket,
  // created on first use.
  std::vector<FarEntry>& list_for(graph::Distance d);
  // (floor(d/δ)+1)·δ − 1, saturating at MAX.
  graph::Distance bucket_bound(graph::Distance d) const noexcept;

  std::vector<Partition> partitions_;  // ascending bounds from head_ on
  std::size_t head_ = 0;               // index of the current partition
  std::vector<std::vector<FarEntry>> lists_;
  std::vector<std::uint32_t> free_lists_;  // lists_ slots not in use
  // Fixed layout: bucket id + 1 (0 = empty) → list, direct-mapped, so a
  // push into an existing bucket costs a division, not a search.
  struct CachedBucket {
    graph::Distance key = 0;
    std::uint32_t list = 0;
  };
  std::vector<CachedBucket> bucket_cache_;
  graph::Distance lower_bound_ = 0;  // B_{i-1} of the current partition
  graph::Distance width_ = 0;        // δ of the fixed layout; 0 = Eq. 7
  std::size_t total_entries_ = 0;
};

}  // namespace sssp::frontier
