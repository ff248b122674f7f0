#include "frontier/far_queue.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fault/failpoint.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace sssp::frontier {

using graph::Distance;
using graph::kInfiniteDistance;
using graph::VertexId;

namespace {

// A consumed partition's entry list keeps its buffer for reuse up to this
// many entries (small δ buckets come and go by the hundred thousand).
constexpr std::size_t kRecycledCapacity = 1024;
constexpr std::size_t kCachedBuckets = 1024;  // a power of two

struct FarQueueMetrics {
  obs::Counter& pushes;
  obs::Counter& pulled;
  obs::Counter& scanned;
  obs::Counter& boundary_updates;
  obs::Counter& boundary_moved;
  obs::Gauge& partitions;

  static FarQueueMetrics& get() {
    static FarQueueMetrics m{
        obs::MetricsRegistry::global().counter("far_queue.pushes"),
        obs::MetricsRegistry::global().counter("far_queue.pulled"),
        obs::MetricsRegistry::global().counter("far_queue.scanned"),
        obs::MetricsRegistry::global().counter("far_queue.boundary_updates"),
        obs::MetricsRegistry::global().counter("far_queue.boundary_moved"),
        obs::MetricsRegistry::global().gauge("far_queue.partitions")};
    return m;
  }
};

}  // namespace

FarQueue::FarQueue(Distance first_bound) {
  if (first_bound == 0)
    throw std::invalid_argument("FarQueue: first_bound must be > 0");
  if (first_bound != kInfiniteDistance)
    partitions_.push_back({first_bound, take_list()});
  partitions_.push_back({kInfiniteDistance, take_list()});
}

FarQueue FarQueue::fixed_width(Distance delta) {
  if (delta == 0)
    throw std::invalid_argument("FarQueue: fixed width must be > 0");
  FarQueue queue;
  queue.width_ = delta;
  queue.bucket_cache_.resize(kCachedBuckets);
  queue.partitions_.push_back({kInfiniteDistance, queue.take_list()});
  return queue;
}

Distance FarQueue::bucket_bound(Distance d) const noexcept {
  const Distance floor = d - d % width_;
  return floor > kInfiniteDistance - (width_ - 1) ? kInfiniteDistance
                                                  : floor + (width_ - 1);
}

std::uint32_t FarQueue::take_list() {
  if (free_lists_.empty()) {
    lists_.emplace_back();
    return static_cast<std::uint32_t>(lists_.size() - 1);
  }
  const std::uint32_t list = free_lists_.back();
  free_lists_.pop_back();
  return list;
}

void FarQueue::pop_front() {
  const Partition front = partitions_[head_];
  std::vector<FarEntry>& list = lists_[front.list];
  if (list.capacity() > kRecycledCapacity) list = {};
  list.clear();
  free_lists_.push_back(front.list);
  lower_bound_ = front.upper_bound;
  if (width_ != 0) {  // the list is recycled: forget the bucket
    const Distance key = front.upper_bound / width_ + 1;
    CachedBucket& cached = bucket_cache_[key & (kCachedBuckets - 1)];
    if (cached.key == key) cached.key = 0;
  }
  // Compacting once half the array is consumed keeps pops O(1) amortized.
  if (++head_ * 2 >= partitions_.size()) {
    partitions_.erase(partitions_.begin(),
                      partitions_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

std::size_t FarQueue::partition_index_for(Distance d) const {
  // First partition whose upper bound is >= d (entries satisfy
  // B_{i-1} < d <= B_i); the last bound is MAX, so one always is.
  const auto parts = live();
  const auto below = [d](const Partition& p) { return p.upper_bound < d; };
  return static_cast<std::size_t>(
      std::partition_point(parts.begin(), parts.end() - 1, below) -
      parts.begin());
}

std::vector<FarEntry>& FarQueue::list_for(Distance d) {
  if (width_ == 0) return entries_of(partition_index_for(d));
  const Distance key = d / width_ + 1;  // wraps to 0 only for d = MAX, δ = 1
  CachedBucket& cached = bucket_cache_[key & (kCachedBuckets - 1)];
  if (cached.key == key && key != 0) return lists_[cached.list];
  // A miss: find d's bucket, creating it in order if it has no entry yet.
  const std::size_t i = head_ + partition_index_for(d);
  const Distance bound = bucket_bound(d);
  if (partitions_[i].upper_bound != bound)
    partitions_.insert(partitions_.begin() + static_cast<std::ptrdiff_t>(i),
                       Partition{bound, take_list()});
  cached = {key, partitions_[i].list};
  return lists_[cached.list];
}

void FarQueue::push(VertexId v, Distance d) {
  list_for(d).push_back({v, d});
  ++total_entries_;
  if (obs::metrics_enabled()) FarQueueMetrics::get().pushes.add();
}

void FarQueue::push_bulk(std::span<const VertexId> vertices,
                         std::span<const Distance> current_distances) {
  const std::size_t n = vertices.size();
  if (n == 0) return;
  constexpr std::size_t kParallelThreshold = 4096;
  if (n < kParallelThreshold || width_ != 0) {
    for (const VertexId v : vertices) {
      const Distance d = current_distances[v];
      list_for(d).push_back({v, d});
    }
  } else {
    // Count → exclusive-prefix-sum → write over (range × partition)
    // cells. Ranges are contiguous slices of the input and each
    // partition's slots are assigned range-major, so every partition
    // sees its entries in input order — bit-identical to the serial
    // push loop at any thread count.
    util::ThreadPool& pool = util::ThreadPool::global();
    const std::size_t num_parts = num_partitions();
    const std::size_t ranges =
        std::max<std::size_t>(1, std::min(n, pool.size() * 4));
    const std::size_t per = (n + ranges - 1) / ranges;
    std::vector<std::size_t> counts(ranges * num_parts, 0);
    pool.for_each_chunk(ranges, [&](std::size_t r, std::size_t) {
      std::size_t* mine = counts.data() + r * num_parts;
      const std::size_t begin = std::min(n, r * per);
      const std::size_t end = std::min(n, begin + per);
      for (std::size_t i = begin; i < end; ++i)
        ++mine[partition_index_for(current_distances[vertices[i]])];
    });
    // Exclusive prefix per partition (partition-major over range-major
    // cells), offset by each partition's existing tail.
    for (std::size_t p = 0; p < num_parts; ++p) {
      std::size_t offset = entries_of(p).size();
      for (std::size_t r = 0; r < ranges; ++r) {
        const std::size_t c = counts[r * num_parts + p];
        counts[r * num_parts + p] = offset;
        offset += c;
      }
      entries_of(p).resize(offset);
    }
    pool.for_each_chunk(ranges, [&](std::size_t r, std::size_t) {
      std::size_t* cursor = counts.data() + r * num_parts;
      const std::size_t begin = std::min(n, r * per);
      const std::size_t end = std::min(n, begin + per);
      for (std::size_t i = begin; i < end; ++i) {
        const VertexId v = vertices[i];
        const Distance d = current_distances[v];
        const std::size_t p = partition_index_for(d);
        entries_of(p)[cursor[p]++] = {v, d};
      }
    });
  }
  total_entries_ += n;
  if (obs::metrics_enabled()) FarQueueMetrics::get().pushes.add(n);
}

void FarQueue::drop_empty_front() {
  while (num_partitions() > 1 && entries_of(0).empty()) pop_front();
}

std::uint64_t FarQueue::pull_below(
    Distance threshold, std::span<const Distance> current_distances,
    std::vector<VertexId>& frontier) {
  std::uint64_t scanned = 0;
  for (const Partition& partition : live()) {
    // Partitions past the first one reaching the threshold hold only
    // entries at or above it: stop after that one.
    const bool straddles = partition.upper_bound >= threshold;
    std::vector<FarEntry>& entries = lists_[partition.list];
    scanned += entries.size();
    std::size_t keep = 0;
    for (const FarEntry& entry : entries) {
      if (current_distances[entry.vertex] != entry.distance) continue;  // stale
      if (entry.distance < threshold) {
        frontier.push_back(entry.vertex);
      } else {
        entries[keep++] = entry;
      }
    }
    total_entries_ -= entries.size() - keep;
    entries.resize(keep);
    if (straddles) break;
  }
  drop_empty_front();
  if (obs::metrics_enabled()) {
    FarQueueMetrics& m = FarQueueMetrics::get();
    m.scanned.add(scanned);
    m.partitions.set(static_cast<double>(num_partitions()));
  }
  return scanned;
}

FarQueue::PullResult FarQueue::pull_front_partition(
    std::span<const Distance> current_distances,
    std::vector<VertexId>& frontier, std::uint64_t max_live) {
  std::vector<FarEntry>& front = entries_of(0);
  PullResult result;
  result.bound = current_partition_bound();

  std::size_t consumed = 0;
  for (; consumed < front.size() && result.pulled < max_live; ++consumed) {
    const FarEntry& entry = front[consumed];
    ++result.scanned;
    if (current_distances[entry.vertex] != entry.distance) continue;  // stale
    frontier.push_back(entry.vertex);
    ++result.pulled;
  }
  total_entries_ -= consumed;

  if (consumed == front.size()) {
    result.exhausted = true;
    front.clear();
    if (num_partitions() > 1) pop_front();
  } else {
    front.erase(front.begin(),
                front.begin() + static_cast<std::ptrdiff_t>(consumed));
  }
  if (obs::metrics_enabled()) {
    FarQueueMetrics& m = FarQueueMetrics::get();
    m.scanned.add(result.scanned);
    m.pulled.add(result.pulled);
    m.partitions.set(static_cast<double>(num_partitions()));
  }
  return result;
}

std::uint64_t FarQueue::update_boundary(double set_point, double alpha) {
  if (set_point <= 0.0 || alpha <= 0.0)
    throw std::invalid_argument(
        "FarQueue: set_point and alpha must be positive");
  if (width_ != 0)
    throw std::logic_error("FarQueue: fixed-width bounds do not move");
  drop_empty_front();

  const double width = set_point / alpha;
  // Keep at least one unit of width so the partition stays non-empty-able.
  const double target_f =
      static_cast<double>(lower_bound_) + std::max(1.0, width);
  // 9e18 guards the llround against overflow (LLONG_MAX ~ 9.2e18).
  const Distance target = target_f >= 9e18
                              ? kInfiniteDistance
                              : static_cast<Distance>(std::llround(target_f));

  if (target >= current_partition_bound()) return 0;  // monotone

  // Tightening the last remaining (MAX-bounded) partition spawns a fresh
  // MAX partition to receive the displaced tail (Section 4.6's append
  // rule).
  if (num_partitions() == 1)
    partitions_.push_back({kInfiniteDistance, take_list()});

  Partition& current = partitions_[head_];
  const Partition& next = partitions_[head_ + 1];
  std::vector<FarEntry>& current_entries = lists_[current.list];
  std::vector<FarEntry>& next_entries = lists_[next.list];
  std::uint64_t moved = 0;
  std::size_t keep = 0;
  for (const FarEntry& entry : current_entries) {
    if (entry.distance > target) {
      next_entries.push_back(entry);
      ++moved;
    } else {
      current_entries[keep++] = entry;
    }
  }
  current_entries.resize(keep);
  current.upper_bound = target;
  // Injected fault: a boundary write that breaks the Eq. 7 ordering
  // (current bound raised to/above the next partition's). The invariant
  // auditor's A2 check is the intended detector.
  if (SSSP_FAILPOINT("far.boundary.corrupt"))
    current.upper_bound = next.upper_bound;
  if (obs::metrics_enabled()) {
    FarQueueMetrics& m = FarQueueMetrics::get();
    m.boundary_updates.add();
    m.boundary_moved.add(moved);
    m.partitions.set(static_cast<double>(num_partitions()));
  }
  return moved;
}

Distance FarQueue::min_live_distance(
    std::span<const Distance> current_distances) const {
  for (const Partition& partition : live()) {
    Distance best = kInfiniteDistance;
    for (const FarEntry& entry : lists_[partition.list]) {
      if (current_distances[entry.vertex] != entry.distance) continue;
      best = std::min(best, entry.distance);
    }
    if (best != kInfiniteDistance) return best;
  }
  return kInfiniteDistance;
}

void FarQueue::clear() {
  for (const Partition& partition : live()) lists_[partition.list].clear();
  total_entries_ = 0;
  drop_empty_front();
}

FarQueue::State FarQueue::state() const {
  State state;
  state.lower_bound = lower_bound_;
  for (const Partition& partition : live()) {
    state.bounds.push_back(partition.upper_bound);
    state.entries.push_back(lists_[partition.list]);
  }
  return state;
}

void FarQueue::restore(State&& state) {
  if (state.bounds.empty() || state.bounds.size() != state.entries.size())
    throw std::invalid_argument(
        "FarQueue: rejected restore state (shape mismatch)");
  partitions_.clear();
  head_ = 0;
  free_lists_.clear();
  std::fill(bucket_cache_.begin(), bucket_cache_.end(), CachedBucket{});
  lists_ = std::move(state.entries);
  total_entries_ = 0;
  for (std::size_t i = 0; i < state.bounds.size(); ++i) {
    total_entries_ += lists_[i].size();
    partitions_.push_back({state.bounds[i], static_cast<std::uint32_t>(i)});
  }
  lower_bound_ = state.lower_bound;
  try {
    check_invariants();
  } catch (const std::logic_error& e) {
    throw std::invalid_argument(
        std::string("FarQueue: rejected restore state (") + e.what() + ")");
  }
}

void FarQueue::check_invariants() const {
  const auto parts = live();
  if (parts.empty()) throw std::logic_error("FarQueue: no partitions");
  if (parts.back().upper_bound != kInfiniteDistance)
    throw std::logic_error("FarQueue: last bound must be MAX");
  Distance prev = lower_bound_;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const Partition& partition = parts[i];
    if (i > 0 && partition.upper_bound <= prev)
      throw std::logic_error("FarQueue: bounds not increasing");
    for (const FarEntry& entry : lists_[partition.list]) {
      if (entry.distance > partition.upper_bound)
        throw std::logic_error("FarQueue: entry above its partition bound");
      if (width_ != 0 && bucket_bound(entry.distance) != partition.upper_bound)
        throw std::logic_error("FarQueue: entry outside its delta bucket");
    }
    counted += lists_[partition.list].size();
    prev = partition.upper_bound;
  }
  if (counted != total_entries_)
    throw std::logic_error("FarQueue: size accounting mismatch");
}

}  // namespace sssp::frontier
