#include "prof/profiler.hpp"

#include <cstdio>
#include <utility>

namespace sssp::prof {

namespace detail {
std::atomic<bool> g_profiling_enabled{false};
}

namespace {
// Generic package-power guess used only when the caller supplied no
// calibration (tools derive a real value from sim::board_power).
constexpr double kDefaultModelWatts = 15.0;
// Retained iteration samples are decimated (adjacent pairs merged,
// stride doubled) past this cap so unbounded runs stay bounded.
constexpr std::size_t kMaxIterationSamples = 4096;
constexpr const char* kUntracked = "(untracked)";
}  // namespace

Profiler& Profiler::global() {
  static Profiler instance;
  return instance;
}

void Profiler::start(const Options& options) {
  stop();
  options_ = options;
  owner_ = std::this_thread::get_id();

  counter_backend_ = CounterBackend::kWallClock;
  if (options_.use_perf && perf_.open())
    counter_backend_ = CounterBackend::kPerfEvent;

  energy_backend_ = EnergyBackend::kModel;
  rapl_ = RaplReader(options_.rapl_root.empty() ? "/sys/class/powercap"
                                                : options_.rapl_root);
  if (options_.use_rapl && rapl_.open())
    energy_backend_ = EnergyBackend::kRapl;
  rapl_status_ = rapl_.status();
  model_watts_ =
      options_.model_watts > 0.0 ? options_.model_watts : kDefaultModelWatts;

  phases_.clear();
  phase_stack_.clear();
  iterations_.clear();
  iteration_stride_ = 1;
  iteration_calls_ = 0;
  series_.clear();
  total_joules_ = 0.0;
  rapl_last_ = RaplEnergy{};

  start_seconds_ = clock_();
  start_counters_ = perf_.read();
  stop_seconds_ = start_seconds_;
  stop_counters_ = start_counters_;
  last_transition_ = {start_seconds_, 0.0, start_counters_};
  last_iteration_mark_ = last_transition_;

  running_ = true;
  detail::g_profiling_enabled.store(true, std::memory_order_relaxed);
}

void Profiler::stop() {
  if (!running_) return;
  detail::g_profiling_enabled.store(false, std::memory_order_relaxed);
  const Transition now = read_now();
  charge_interval(now);
  last_transition_ = now;
  stop_seconds_ = now.seconds;
  stop_counters_ = now.counters;
  total_joules_ = now.joules;
  // A run with no iteration samples still gets a usable (flat) power
  // timeline covering the whole span.
  if (series_.empty() && stop_seconds_ > start_seconds_) {
    const double w = total_joules_ / (stop_seconds_ - start_seconds_);
    series_.add(start_seconds_, w);
    series_.add(stop_seconds_, w);
  }
  phase_stack_.clear();
  perf_.close();
  running_ = false;
}

double Profiler::cumulative_joules() {
  if (energy_backend_ == EnergyBackend::kRapl) {
    rapl_last_ = rapl_.read();
    return rapl_last_.total_joules();
  }
  return (clock_() - start_seconds_) * model_watts_;
}

Profiler::Transition Profiler::read_now() {
  Transition t;
  t.joules = cumulative_joules();
  t.counters = perf_.read();
  t.seconds = clock_();
  return t;
}

void Profiler::charge_interval(const Transition& now) {
  const char* name = phase_stack_.empty() ? kUntracked : phase_stack_.back();
  PhaseProfile& p = phases_[name];
  p.seconds += now.seconds - last_transition_.seconds;
  p.joules += now.joules - last_transition_.joules;
  p.counters += now.counters - last_transition_.counters;
}

bool Profiler::enter_phase(const char* name) {
  if (!running_ || std::this_thread::get_id() != owner_) return false;
  const Transition now = read_now();
  charge_interval(now);
  last_transition_ = now;
  phase_stack_.push_back(name);
  ++phases_[name].entries;
  return true;
}

void Profiler::exit_phase() {
  if (!running_ || phase_stack_.empty()) return;
  const Transition now = read_now();
  charge_interval(now);
  last_transition_ = now;
  phase_stack_.pop_back();
}

void Profiler::sample_iteration(std::uint64_t iteration) {
  if (!running_ || std::this_thread::get_id() != owner_) return;
  ++iteration_calls_;
  if (iteration_calls_ % iteration_stride_ != 0) return;
  const Transition now = read_now();
  IterationSample s;
  s.iteration = iteration;
  s.seconds = now.seconds - last_iteration_mark_.seconds;
  s.joules = now.joules - last_iteration_mark_.joules;
  s.counters = now.counters - last_iteration_mark_.counters;
  if (s.seconds > 0.0 && s.joules >= 0.0) {
    const double w = s.joules / s.seconds;
    series_.add(last_iteration_mark_.seconds, w);
    series_.add(now.seconds, w);
  }
  iterations_.push_back(s);
  last_iteration_mark_ = now;
  if (iterations_.size() >= kMaxIterationSamples) {
    // Merge adjacent pairs: deltas stay additive, the history halves,
    // and future samples arrive at twice the stride.
    std::vector<IterationSample> merged;
    merged.reserve(iterations_.size() / 2 + 1);
    for (std::size_t i = 0; i + 1 < iterations_.size(); i += 2) {
      IterationSample m = iterations_[i + 1];
      m.seconds += iterations_[i].seconds;
      m.joules += iterations_[i].joules;
      m.counters += iterations_[i].counters;
      merged.push_back(m);
    }
    if (iterations_.size() % 2 != 0) merged.push_back(iterations_.back());
    iterations_ = std::move(merged);
    iteration_stride_ *= 2;
  }
}

RunProfile Profiler::report() const {
  RunProfile rp;
  rp.counter_backend = counter_backend_;
  rp.counter_backend_detail = perf_.status();
  rp.wall_seconds =
      (running_ ? clock_() : stop_seconds_) - start_seconds_;
  rp.totals = (running_ ? perf_.read() : stop_counters_) - start_counters_;
  rp.phases = phases_;
  rp.iterations = iterations_;

  EnergyReport& e = rp.energy;
  e.backend = energy_backend_;
  e.seconds = rp.wall_seconds;
  if (energy_backend_ == EnergyBackend::kRapl) {
    e.backend_detail = rapl_status_;
    e.package_joules = rapl_last_.package_joules;
    e.dram_joules = rapl_last_.dram_joules;
    e.joules = running_ ? rapl_last_.total_joules() : total_joules_;
  } else {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "model %.2f W (%s)", model_watts_,
                  rapl_status_.c_str());
    e.backend_detail = buf;
    e.joules = running_ ? e.seconds * model_watts_ : total_joules_;
    e.package_joules = e.joules;
  }
  e.average_watts = e.seconds > 0.0 ? e.joules / e.seconds : 0.0;
  e.energy_delay_product = e.joules * e.seconds;
  return rp;
}

}  // namespace sssp::prof
