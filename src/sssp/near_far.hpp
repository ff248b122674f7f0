// The baseline near-far SSSP of Davidson et al. as implemented in
// Gunrock (paper Section 3): a static user-chosen delta partitions the
// frontier into a near queue (processed now) and a far queue (postponed).
// The far queue keeps δ buckets; a phase change pulls its front ones.
#pragma once

#include "graph/csr.hpp"
#include "sssp/result.hpp"
#include "util/run_control.hpp"

namespace sssp::algo {

struct NearFarOptions {
  // Phase width. 0 selects mean edge weight (a common rule of thumb).
  graph::Distance delta = 0;
  // Safety valve for pathological inputs (0 = unlimited).
  std::size_t max_iterations = 0;
  // Relax large frontiers on the host thread pool (see
  // frontier::NearFarEngine::Options). The parallel pipeline is
  // deterministic — distances, parents, frontier ordering, and
  // per-iteration stats are bit-identical at any thread count — so it
  // is on by default.
  bool parallel = true;
  // Frontiers below this size relax serially.
  std::size_t parallel_threshold = 4096;
  // Cooperative cancellation (deadline / signal / stall): polled each
  // iteration and inside the engine stages; a stop request aborts the
  // run with util::StopRequested. Not owned; may be null.
  util::RunControl* control = nullptr;
};

SsspResult near_far(const graph::CsrGraph& graph, graph::VertexId source,
                    const NearFarOptions& options = {});

}  // namespace sssp::algo
