// Frontier work-plan builder: the edge-balanced prefix-sum planner of
// the deterministic parallel advance pipeline (frontier/engine.cpp).
//
// The plan is two artifacts over one frontier:
//
//   edge_prefix[i]  exclusive prefix sum of the frontier's out-degrees
//                   (edge_prefix[|F|] == X2, the edge work volume);
//   chunk_begin[c]  frontier-index chunk boundaries, cut by binary-
//                   searching the degree prefix for multiples of a
//                   per-chunk edge budget, so each chunk owns ~equal
//                   *edges* — on skewed-degree graphs equal index
//                   ranges would leave whole hubs in one chunk and
//                   serialize the iteration on it.
//
// Chunking only affects scheduling: the deterministic pipelines built
// on top (count → exclusive-prefix-sum → write merges) produce results
// independent of the cuts, the thread count, and the claim order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"
#include "util/thread_pool.hpp"

namespace sssp::frontier {

// Minimum edges per chunk (grain): below this, chunk-claiming overhead
// dominates the work.
inline constexpr std::size_t kMinChunkEdges = 2048;
// Oversubscription factors: chunks per pool thread for dynamic
// claiming, and ranges per pool thread for uniform-cost scan passes
// (the prefix sum here, the engine's stable partitions).
inline constexpr std::size_t kChunksPerThread = 8;
inline constexpr std::size_t kRangesPerThread = 4;

// Builds the plan over `frontier` on the global pool: a parallel
// two-pass degree prefix sum, then the edge-balanced chunk cuts.
// `snapshot(i, u)` is invoked exactly once per frontier index inside
// the first pass — callers use it to snapshot iteration-start state
// (e.g. distance rows) in the same sweep instead of paying a second
// pass. `range_scratch` is caller-owned scratch reused across calls.
// Returns X2 (total edge work).
template <typename Snapshot>
std::uint64_t build_frontier_plan(const graph::CsrGraph& graph,
                                  std::span<const graph::VertexId> frontier,
                                  std::vector<std::uint64_t>& edge_prefix,
                                  std::vector<std::size_t>& chunk_begin,
                                  std::vector<std::uint64_t>& range_scratch,
                                  Snapshot&& snapshot) {
  const std::size_t x1 = frontier.size();
  util::ThreadPool& pool = util::ThreadPool::global();
  edge_prefix.resize(x1 + 1);

  const std::size_t ranges = std::max<std::size_t>(
      1, std::min(x1, pool.size() * kRangesPerThread));
  const std::size_t per = (x1 + ranges - 1) / ranges;
  range_scratch.assign(ranges, 0);
  edge_prefix[0] = 0;
  pool.for_each_chunk(ranges, [&](std::size_t r, std::size_t) {
    const std::size_t begin = r * per;
    const std::size_t end = std::min(x1, begin + per);
    std::uint64_t running = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const graph::VertexId u = frontier[i];
      snapshot(i, u);
      running += graph.out_degree(u);
      edge_prefix[i + 1] = running;  // range-relative; globalized below
    }
    range_scratch[r] = running;
  });
  std::uint64_t total = 0;
  for (std::size_t r = 0; r < ranges; ++r) {
    const std::uint64_t t = range_scratch[r];
    range_scratch[r] = total;
    total += t;
  }
  pool.for_each_chunk(ranges, [&](std::size_t r, std::size_t) {
    if (range_scratch[r] == 0) return;
    const std::size_t begin = r * per;
    const std::size_t end = std::min(x1, begin + per);
    for (std::size_t i = begin; i < end; ++i)
      edge_prefix[i + 1] += range_scratch[r];
  });
  const std::uint64_t x2 = edge_prefix[x1];

  chunk_begin.clear();
  chunk_begin.push_back(0);
  const std::uint64_t budget = std::max<std::uint64_t>(
      kMinChunkEdges, x2 / std::max<std::size_t>(
                               1, pool.size() * kChunksPerThread) + 1);
  while (chunk_begin.back() < x1) {
    const std::uint64_t target = edge_prefix[chunk_begin.back()] + budget;
    if (target >= x2) break;
    const auto it = std::lower_bound(
        edge_prefix.begin() +
            static_cast<std::ptrdiff_t>(chunk_begin.back() + 1),
        edge_prefix.begin() + static_cast<std::ptrdiff_t>(x1), target);
    const auto idx = static_cast<std::size_t>(it - edge_prefix.begin());
    if (idx >= x1) break;
    chunk_begin.push_back(idx);
  }
  chunk_begin.push_back(x1);
  return x2;
}

}  // namespace sssp::frontier
