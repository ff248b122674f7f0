// End-to-end profiler behavior on every rung of the fallback ladder:
// model/wall-clock (always available), fake-sysfs RAPL, and real
// perf_event when the host permits it. The load-bearing property is
// exclusive phase attribution: per-phase seconds/joules/counters sum to
// the whole profiled span (exactly under an injected clock; within 5%,
// the documented tolerance, against real counters).
#include "prof/profiler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

namespace sssp::prof {
namespace {

// Spins the CPU for roughly `seconds` (wall clock, not sleep, so
// task-clock and cycle counters advance too).
void busy_spin(double seconds) {
  const double until = monotonic_seconds() + seconds;
  volatile std::uint64_t sink = 0;
  while (monotonic_seconds() < until) {
    std::uint64_t acc = sink;
    for (int i = 0; i < 500; ++i) acc += static_cast<std::uint64_t>(i);
    sink = acc;
  }
}

Profiler::Options model_only_options() {
  Profiler::Options options;
  options.use_perf = false;
  options.use_rapl = false;
  options.model_watts = 10.0;
  return options;
}

TEST(Profiler, DisarmedByDefaultAndScopesAreNoOps) {
  EXPECT_FALSE(profiling_enabled());
  {
    SSSP_PROF_PHASE("never_recorded");
    busy_spin(0.0005);
  }
  EXPECT_FALSE(profiling_enabled());
}

TEST(Profiler, ModelEnergyAndWallClockFallback) {
  Profiler& profiler = Profiler::global();
  profiler.start(model_only_options());
  EXPECT_TRUE(profiling_enabled());
  {
    SSSP_PROF_PHASE("work");
    busy_spin(0.005);
  }
  profiler.stop();
  EXPECT_FALSE(profiling_enabled());

  const RunProfile profile = profiler.report();
  EXPECT_EQ(profile.energy.backend, EnergyBackend::kModel);
  EXPECT_EQ(profile.counter_backend, CounterBackend::kWallClock);
  EXPECT_GT(profile.wall_seconds, 0.004);
  // Model joules are watts x wall seconds, up to the sub-microsecond
  // skew between the joules and clock reads inside one transition.
  EXPECT_NEAR(profile.energy.joules, profile.wall_seconds * 10.0,
              profile.energy.joules * 1e-3);
  EXPECT_NEAR(profile.energy.average_watts, 10.0, 1e-2);
  EXPECT_DOUBLE_EQ(
      profile.energy.energy_delay_product,
      profile.energy.joules * profile.energy.seconds);
  // The fallback reason strings reach the report.
  EXPECT_NE(profile.energy.backend_detail.find("model"), std::string::npos);
  ASSERT_EQ(profile.phases.count("work"), 1u);
  EXPECT_GT(profile.phases.at("work").seconds, 0.004);
}

// A clock the test advances by hand, so attribution can be checked
// exactly instead of against busy-spin timings that machine load skews.
double g_fake_seconds = 0.0;
double fake_clock() { return g_fake_seconds; }

TEST(Profiler, ExclusivePhaseAttributionSumsToWholeRun) {
  Profiler& profiler = Profiler::global();
  profiler.set_clock(&fake_clock);
  g_fake_seconds = 100.0;
  profiler.start(model_only_options());
  for (int i = 0; i < 5; ++i) {
    SSSP_PROF_PHASE("outer");
    g_fake_seconds += 2.0;
    {
      SSSP_PROF_PHASE("inner");
      g_fake_seconds += 3.0;
    }
    g_fake_seconds += 1.0;
  }
  g_fake_seconds += 2.0;  // outside any phase -> "(untracked)"
  profiler.stop();
  profiler.set_clock(nullptr);

  const RunProfile profile = profiler.report();
  ASSERT_EQ(profile.phases.count("outer"), 1u);
  ASSERT_EQ(profile.phases.count("inner"), 1u);
  ASSERT_EQ(profile.phases.count("(untracked)"), 1u);
  EXPECT_EQ(profile.phases.at("outer").entries, 5u);
  EXPECT_EQ(profile.phases.at("inner").entries, 5u);
  // Exclusive attribution: inner time is NOT double-counted in outer.
  EXPECT_EQ(profile.phases.at("inner").seconds, 5 * 3.0);
  EXPECT_EQ(profile.phases.at("outer").seconds, 5 * 3.0);
  EXPECT_EQ(profile.phases.at("(untracked)").seconds, 2.0);
  EXPECT_EQ(profile.wall_seconds, 32.0);
  // Model energy is 10 W times the same intervals.
  EXPECT_EQ(profile.phases.at("inner").joules, 150.0);
  EXPECT_EQ(profile.phases.at("outer").joules, 150.0);
  EXPECT_EQ(profile.phases.at("(untracked)").joules, 20.0);
  EXPECT_EQ(profile.energy.joules, 320.0);

  // Phase sums equal the whole-run totals.
  double sum_seconds = 0.0;
  double sum_joules = 0.0;
  for (const auto& [name, phase] : profile.phases) {
    sum_seconds += phase.seconds;
    sum_joules += phase.joules;
  }
  EXPECT_EQ(sum_seconds, profile.wall_seconds);
  EXPECT_EQ(sum_joules, profile.energy.joules);
}

TEST(Profiler, PerfCountersAttributeWithinTolerance) {
  Profiler::Options options;
  options.use_perf = true;
  options.use_rapl = false;
  options.model_watts = 10.0;
  Profiler& profiler = Profiler::global();
  profiler.start(options);
  {
    SSSP_PROF_PHASE("alpha");
    busy_spin(0.01);
  }
  {
    SSSP_PROF_PHASE("beta");
    busy_spin(0.01);
  }
  profiler.stop();

  const RunProfile profile = profiler.report();
  if (profile.counter_backend != CounterBackend::kPerfEvent)
    GTEST_SKIP() << "perf_event unavailable: "
                 << profile.counter_backend_detail;

  EXPECT_GT(profile.totals.instructions, 0u);
  EXPECT_GT(profile.totals.cycles, 0u);
  std::uint64_t sum_instructions = 0;
  double sum_task = 0.0;
  for (const auto& [name, phase] : profile.phases) {
    sum_instructions += phase.counters.instructions;
    sum_task += phase.counters.task_seconds;
  }
  EXPECT_NEAR(static_cast<double>(sum_instructions),
              static_cast<double>(profile.totals.instructions),
              0.05 * static_cast<double>(profile.totals.instructions));
  EXPECT_NEAR(sum_task, profile.totals.task_seconds,
              0.05 * profile.totals.task_seconds + 1e-6);
}

TEST(Profiler, RaplBackendSelectedFromFakeSysfs) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(::testing::TempDir()) / "profiler_powercap";
  fs::create_directories(root / "intel-rapl:0");
  {
    std::ofstream(root / "intel-rapl:0" / "name") << "package-0\n";
    std::ofstream(root / "intel-rapl:0" / "energy_uj") << "123456789\n";
    std::ofstream(root / "intel-rapl:0" / "max_energy_range_uj")
        << "65532610987\n";
  }

  Profiler::Options options;
  options.use_perf = false;
  options.use_rapl = true;
  options.rapl_root = root.string();
  Profiler& profiler = Profiler::global();
  profiler.start(options);
  busy_spin(0.001);
  profiler.stop();

  const RunProfile profile = profiler.report();
  EXPECT_EQ(profile.energy.backend, EnergyBackend::kRapl);
  // The counter file never moved, so hardware-reported energy is zero —
  // what matters is the backend selection and a sane report.
  EXPECT_DOUBLE_EQ(profile.energy.joules, 0.0);
  EXPECT_NE(profile.energy.backend_detail.find("ok (1 domains)"),
            std::string::npos)
      << profile.energy.backend_detail;

  std::error_code ec;
  fs::remove_all(root, ec);
}

TEST(Profiler, IterationSamplingStaysBoundedAndAdditive) {
  Profiler& profiler = Profiler::global();
  profiler.start(model_only_options());
  constexpr int kIterations = 20000;
  for (int i = 0; i < kIterations; ++i) {
    if (i % 1000 == 0) busy_spin(0.0002);
    profiler.sample_iteration(static_cast<std::uint64_t>(i));
  }
  profiler.stop();

  const RunProfile profile = profiler.report();
  EXPECT_LE(profile.iterations.size(), 4096u);
  EXPECT_GT(profile.iterations.size(), 0u);
  // Decimation merges adjacent samples; the deltas stay additive, so
  // the retained samples still cover the sampled span.
  double sum_seconds = 0.0;
  std::uint64_t last_iteration = 0;
  for (const IterationSample& s : profile.iterations) {
    sum_seconds += s.seconds;
    EXPECT_GE(s.iteration, last_iteration);
    last_iteration = s.iteration;
  }
  EXPECT_LE(sum_seconds, profile.wall_seconds * 1.05);
  EXPECT_GT(sum_seconds, 0.0);
}

TEST(Profiler, ScopesOffOwnerThreadDisengage) {
  Profiler& profiler = Profiler::global();
  profiler.start(model_only_options());
  std::thread worker([] {
    SSSP_PROF_PHASE("worker_phase");
    busy_spin(0.001);
  });
  worker.join();
  profiler.stop();
  const RunProfile profile = profiler.report();
  EXPECT_EQ(profile.phases.count("worker_phase"), 0u);
}

TEST(Profiler, StopIsIdempotent) {
  Profiler& profiler = Profiler::global();
  profiler.start(model_only_options());
  busy_spin(0.001);
  profiler.stop();
  const double wall = profiler.report().wall_seconds;
  busy_spin(0.002);
  profiler.stop();  // must not extend the profiled span
  EXPECT_DOUBLE_EQ(profiler.report().wall_seconds, wall);
}

}  // namespace
}  // namespace sssp::prof
