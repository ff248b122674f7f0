// Per-iteration frontier statistics in the paper's notation (Section
// 3.1), recorded by the engine and consumed by (a) the controller and
// (b) the device simulator.
#pragma once

#include <cstdint>

#include "sim/workload.hpp"

namespace sssp::frontier {

struct IterationStats {
  std::uint64_t x1 = 0;  // frontier size entering advance
  // "Available parallelism": the neighbor-list cardinality of the input
  // frontier — the number of edge work items advance spawns. This is
  // the quantity the controller regulates toward the set-point P.
  std::uint64_t x2 = 0;
  std::uint64_t x3 = 0;  // deduplicated updated frontier (after filter)
  std::uint64_t x4 = 0;  // near-side frontier after bisect-frontier
  // Distance-improving relaxations during advance (work the filter sees).
  std::uint64_t improving_relaxations = 0;
  // Static near-far reports these for the simulator's flat far pile.
  std::uint64_t far_queue_size = 0;   // after the iteration completed
  std::uint64_t rebalance_items = 0;  // vertices scanned by stage 4
  double controller_seconds = 0.0;    // host-side controller time
  double delta = 0.0;                 // threshold in effect this iteration
  // Controller-internal estimates at the end of the iteration (0 when
  // no controller ran): the ADVANCE-MODEL's frontier-degree estimate d
  // and the BISECT-MODEL's vertices-per-distance alpha. Exposed for
  // convergence analysis and the controller-diagnostics tooling.
  double degree_estimate = 0.0;
  double alpha_estimate = 0.0;
  // True while the controller's self-healing monitor has the adaptive
  // models quarantined and the static fallback delta policy is in
  // effect (docs/ROBUSTNESS.md). Always false for baselines.
  bool controller_degraded = false;

  friend bool operator==(const IterationStats&,
                         const IterationStats&) = default;

  sim::IterationWork to_work() const {
    sim::IterationWork w;
    w.x1 = x1;
    w.x2 = x2;
    w.x3 = x3;
    w.x4 = x4;
    w.edges_relaxed = x2;
    w.rebalance_items = rebalance_items;
    w.far_queue_size = far_queue_size;
    w.controller_seconds = controller_seconds;
    return w;
  }
};

}  // namespace sssp::frontier
