// Pinned per-iteration trace of static near-far. The golden values were
// recorded from the flat-pile far queue that static near-far used before
// it moved onto the δ-bucketed Eq. 7 queue: distances, parents, X1–X4,
// improving relaxations, the modeled rebalance_items and far_queue_size
// must all stay bit-identical across that change, at 1 and 4 threads.
// The simulator's Gunrock baseline (sim/run.cpp stage 4, sweep_delta)
// reads rebalance_items, so a drift here moves the EXPERIMENTS.md rows.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

#include "graph/binary_io.hpp"
#include "graph/rmat.hpp"
#include "graph/road.hpp"
#include "sssp/near_far.hpp"
#include "util/thread_pool.hpp"

namespace sssp::algo {
namespace {

const graph::CsrGraph& road() {
  static const graph::CsrGraph g = [] {
    graph::RoadOptions options;
    options.rows = 64;
    options.cols = 64;
    return graph::generate_road(options);
  }();
  return g;
}

const graph::CsrGraph& rmat() {
  static const graph::CsrGraph g = [] {
    graph::RmatOptions options;
    options.scale = 14;
    options.num_edges = 1u << 17;
    return graph::generate_rmat(options);
  }();
  return g;
}

template <typename T>
std::uint64_t fnv(const std::vector<T>& values) {
  return graph::fnv1a64(values.data(), values.size() * sizeof(T));
}

struct Golden {
  std::size_t iterations;
  std::uint64_t trace;  // FNV-1a of every per-iteration record
  std::uint64_t distances;
  std::uint64_t parents;

  friend bool operator==(const Golden&, const Golden&) = default;
};

void PrintTo(const Golden& g, std::ostream* os) {
  *os << "{" << g.iterations << ", 0x" << std::hex << g.trace << "ull, 0x"
      << g.distances << "ull, 0x" << g.parents << "ull" << std::dec << "}";
}

Golden run(const graph::CsrGraph& g, graph::Distance delta) {
  const SsspResult result = near_far(g, 0, {.delta = delta});
  std::vector<std::uint64_t> trace;
  trace.reserve(result.iterations.size() * 8);
  for (const auto& it : result.iterations) {
    trace.insert(trace.end(),
                 {std::bit_cast<std::uint64_t>(it.delta), it.x1, it.x2, it.x3,
                  it.x4, it.improving_relaxations, it.rebalance_items,
                  it.far_queue_size});
  }
  return {result.iterations.size(), fnv(trace), fnv(result.distances),
          fnv(result.parents)};
}

struct ParityCase {
  const char* graph;
  graph::Distance delta;  // 0 = mean edge weight
  Golden golden;
};

constexpr ParityCase kCases[] = {
    {"road", 1,
     {3433, 0x726659142efea773ull, 0xa2e766f1640cf87cull, 0xf8c1afcabbe8173cull}},
    {"road", 0,
     {151, 0x8a7817fe497c8dd9ull, 0xa2e766f1640cf87cull, 0x234cca939f56cc4eull}},
    {"road", 4096,
     {110, 0x9f0f743b5c141deeull, 0xa2e766f1640cf87cull, 0xf8c1afcabbe8173cull}},
    {"rmat", 1,
     {151, 0x7a8ae7b354a9cc60ull, 0x1b01733fd0f027ecull, 0xdfafdd9f4efaa4afull}},
    {"rmat", 0,
     {14, 0xaa83f997c58e13a3ull, 0x1b01733fd0f027ecull, 0x878fefd090bb47a5ull}},
    {"rmat", 4096,
     {9, 0x87809a9ad46c9128ull, 0x1b01733fd0f027ecull, 0xcdef12c8fb965389ull}},
};

TEST(NearFarParity, PinnedTraceAtOneAndFourThreads) {
  for (const std::size_t threads : {1u, 4u}) {
    util::ThreadPool::set_global_threads(threads);
    for (const ParityCase& c : kCases) {
      const graph::CsrGraph& g =
          std::string_view(c.graph) == "road" ? road() : rmat();
      EXPECT_EQ(run(g, c.delta), c.golden)
          << c.graph << " delta=" << c.delta << " threads=" << threads;
    }
  }
  util::ThreadPool::set_global_threads(0);
}

}  // namespace
}  // namespace sssp::algo
