#include "sssp/bellman_ford.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace sssp::algo {
namespace {

// Atomic fetch-min on a distance slot; returns true if it improved.
bool atomic_fetch_min(std::atomic<graph::Distance>& slot,
                      graph::Distance value) {
  graph::Distance current = slot.load(std::memory_order_relaxed);
  while (value < current) {
    if (slot.compare_exchange_weak(current, value, std::memory_order_relaxed))
      return true;
  }
  return false;
}

}  // namespace

SsspResult bellman_ford(const graph::CsrGraph& graph, graph::VertexId source,
                        const BellmanFordOptions& options) {
  if (source >= graph.num_vertices())
    throw std::invalid_argument("bellman_ford: source out of range");

  const std::size_t n = graph.num_vertices();
  // Frontier-based: only vertices whose distance changed last round are
  // re-expanded (classic "SPFA"-style work reduction, still Bellman-Ford
  // bounds in the worst case).
  std::vector<std::atomic<graph::Distance>> dist(n);
  for (auto& d : dist) d.store(graph::kInfiniteDistance, std::memory_order_relaxed);
  dist[source].store(0, std::memory_order_relaxed);

  std::vector<graph::VertexId> frontier{source};
  // Membership flags for the next frontier; atomic exchange guarantees
  // exactly one thread appends each vertex (no duplicates, no race).
  std::vector<std::atomic<std::uint8_t>> in_next(n);
  for (auto& flag : in_next) flag.store(0, std::memory_order_relaxed);

  SsspResult result;
  result.algorithm = "bellman-ford";
  result.source = source;

  while (!frontier.empty()) {
    frontier::IterationStats stats;
    stats.x1 = frontier.size();

    std::vector<graph::VertexId> next;
    std::atomic<std::uint64_t> edges{0};
    std::atomic<std::uint64_t> improving{0};
    std::mutex next_mu;

    auto relax_range = [&](std::size_t begin, std::size_t end) {
      std::vector<graph::VertexId> local_next;
      std::uint64_t local_edges = 0, local_improving = 0;
      for (std::size_t i = begin; i < end; ++i) {
        const graph::VertexId u = frontier[i];
        const graph::Distance du = dist[u].load(std::memory_order_relaxed);
        const auto neighbors = graph.neighbors(u);
        const auto weights = graph.weights_of(u);
        local_edges += neighbors.size();
        for (std::size_t e = 0; e < neighbors.size(); ++e) {
          const graph::VertexId v = neighbors[e];
          if (atomic_fetch_min(dist[v], du + weights[e])) {
            ++local_improving;
            if (in_next[v].exchange(1, std::memory_order_relaxed) == 0) {
              local_next.push_back(v);
            }
          }
        }
      }
      edges.fetch_add(local_edges, std::memory_order_relaxed);
      improving.fetch_add(local_improving, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(next_mu);
      next.insert(next.end(), local_next.begin(), local_next.end());
    };

    if (options.parallel) {
      // size() * 4 ranges claimed dynamically, so threads that finish
      // early keep pulling work.
      auto& pool = util::ThreadPool::global();
      const std::size_t n_front = frontier.size();
      const std::size_t chunks = std::min(n_front, pool.size() * 4);
      const std::size_t per = (n_front + chunks - 1) / chunks;
      pool.for_each_chunk(chunks, [&](std::size_t chunk, std::size_t) {
        const std::size_t begin = chunk * per;
        if (begin < n_front)
          relax_range(begin, std::min(n_front, begin + per));
      });
    } else {
      relax_range(0, frontier.size());
    }

    for (const graph::VertexId v : next)
      in_next[v].store(0, std::memory_order_relaxed);

    stats.x2 = edges.load();
    stats.improving_relaxations = improving.load();
    stats.x3 = next.size();
    stats.x4 = next.size();  // no bisect: everything proceeds immediately
    result.improving_relaxations += stats.improving_relaxations;
    result.iterations.push_back(stats);
    frontier = std::move(next);
  }

  result.distances.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    result.distances[i] = dist[i].load(std::memory_order_relaxed);

  // Parent recovery: with parallel atomic-min relaxation, in-flight
  // parent writes could disagree with the final distances, so derive the
  // tree deterministically from the settled distances instead.
  result.parents = derive_parents(graph, result.distances, source);
  return result;
}

}  // namespace sssp::algo
