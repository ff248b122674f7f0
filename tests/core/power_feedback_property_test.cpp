// Parameterized sweeps over the power-feedback loop: exactness and
// budget behaviour across gains, budgets, and devices.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/power_feedback.hpp"
#include "graph/datasets.hpp"
#include "sssp/dijkstra.hpp"

namespace sssp::core {
namespace {

// The device is a std::string, not a const char*: GoogleTest prints a
// char pointer parameter with its address, which would make the
// registered test names differ from build to build.
using Case = std::tuple<double /*budget_w*/, double /*gain*/,
                        std::string /*device*/>;

class PowerFeedbackProperty : public ::testing::TestWithParam<Case> {
 protected:
  static void SetUpTestSuite() {
    graph_ = new graph::CsrGraph(
        graph::make_dataset(graph::Dataset::kCal, {.scale = 1.0 / 64.0}));
    source_ = graph::default_source(graph::Dataset::kCal, *graph_);
    reference_ = new std::vector<graph::Distance>(
        algo::dijkstra_distances(*graph_, source_));
  }
  static void TearDownTestSuite() {
    delete graph_;
    delete reference_;
    graph_ = nullptr;
    reference_ = nullptr;
  }

  static graph::CsrGraph* graph_;
  static std::vector<graph::Distance>* reference_;
  static graph::VertexId source_;
};

graph::CsrGraph* PowerFeedbackProperty::graph_ = nullptr;
std::vector<graph::Distance>* PowerFeedbackProperty::reference_ = nullptr;
graph::VertexId PowerFeedbackProperty::source_ = 0;

TEST_P(PowerFeedbackProperty, ExactAndWellFormed) {
  const auto [budget, gain, device_name] = GetParam();
  const sim::DeviceSpec device = device_name == "tx1"
                                     ? sim::DeviceSpec::jetson_tx1()
                                     : sim::DeviceSpec::jetson_tk1();
  PowerFeedbackOptions options;
  options.power_budget_w = budget;
  options.gain = gain;
  const auto result = power_feedback_sssp(*graph_, source_, device,
                                          sim::DefaultGovernor(), options);
  EXPECT_EQ(algo::count_distance_mismatches(result.sssp.distances,
                                            *reference_),
            0u);
  EXPECT_EQ(result.set_point_trace.size(), result.sssp.num_iterations());
  for (const double p : result.set_point_trace) {
    EXPECT_GE(p, options.min_set_point);
    EXPECT_LE(p, options.max_set_point);
  }
  for (const double w : result.power_trace_w) {
    EXPECT_GT(w, 0.0);
    EXPECT_LT(w, 30.0);  // sanity: board-level watts
  }
  EXPECT_GE(result.compliant_fraction, 0.0);
  EXPECT_LE(result.compliant_fraction, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PowerFeedbackProperty,
    ::testing::Combine(::testing::Values(4.0, 5.5, 50.0),
                       ::testing::Values(0.1, 0.5, 2.0),
                       ::testing::Values(std::string("tk1"),
                                         std::string("tx1"))),
    [](const ::testing::TestParamInfo<Case>& tpi) {
      return "budget" +
             std::to_string(static_cast<int>(std::get<0>(tpi.param) * 10)) +
             "_gain" +
             std::to_string(static_cast<int>(std::get<1>(tpi.param) * 10)) +
             "_" + std::get<2>(tpi.param);
    });

TEST(PowerFeedbackOrdering, TighterBudgetsNeverUseMorePower) {
  const auto g =
      graph::make_dataset(graph::Dataset::kWiki, {.scale = 1.0 / 256.0});
  const auto src = graph::default_source(graph::Dataset::kWiki, g);
  const sim::DeviceSpec device = sim::DeviceSpec::jetson_tk1();
  double previous = 0.0;
  for (const double budget : {4.2, 5.5, 7.0, 50.0}) {
    PowerFeedbackOptions options;
    options.power_budget_w = budget;
    const auto result = power_feedback_sssp(g, src, device,
                                            sim::DefaultGovernor(), options);
    EXPECT_GE(result.report.average_power_w + 0.35, previous)
        << "budget " << budget;  // weakly increasing (0.35 W noise band)
    previous = result.report.average_power_w;
  }
}

}  // namespace
}  // namespace sssp::core
