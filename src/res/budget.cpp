#include "res/budget.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "fault/failpoint.hpp"
#include "obs/metrics.hpp"
#include "util/atomic_file.hpp"

namespace sssp::res {
namespace {

void bump(const char* name) {
  if (obs::metrics_enabled())
    obs::MetricsRegistry::global().counter(name).add(1);
}

// Runtime-named failpoint check (the SSSP_FAILPOINT macro wants a
// literal; check sites arrive as strings). Same fast path: one
// relaxed load when faults are globally off.
bool site_fires(const char* site) noexcept {
  if (!fault::faults_enabled()) return false;
  if (fault::FailpointRegistry::global().failpoint(site).should_fire())
    return true;
  return fault::FailpointRegistry::global()
      .failpoint("res.alloc.fail")
      .should_fire();
}

std::string format_error(ResourceKind kind, const std::string& site,
                         std::uint64_t requested, std::uint64_t available) {
  std::ostringstream out;
  out << "resource budget exceeded at " << site << ": requested " << requested
      << " " << to_string(kind) << ", available " << available;
  return out.str();
}

util::WriteFault io_failpoint_hook() noexcept {
  util::WriteFault fault;
  if (SSSP_FAILPOINT("io.write.enospc")) fault.error = ENOSPC;
  if (SSSP_FAILPOINT("io.write.short")) fault.short_write = true;
  return fault;
}

std::uint64_t env_mb(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0') return 0;
  return static_cast<std::uint64_t>(parsed);
}

}  // namespace

const char* to_string(ResourceKind kind) noexcept {
  switch (kind) {
    case ResourceKind::kMemory:
      return "memory bytes";
    case ResourceKind::kScratch:
      return "scratch bytes";
  }
  return "resource";
}

ResourceError::ResourceError(ResourceKind kind, std::string site,
                             std::uint64_t requested, std::uint64_t available)
    : std::runtime_error(format_error(kind, site, requested, available)),
      kind_(kind),
      site_(std::move(site)),
      requested_(requested),
      available_(available) {}

ResourceBudget& ResourceBudget::global() {
  static ResourceBudget instance;
  return instance;
}

void ResourceBudget::set_memory_limit(std::uint64_t bytes) noexcept {
  memory_limit_.store(bytes, std::memory_order_relaxed);
}

std::uint64_t ResourceBudget::memory_limit() const noexcept {
  return memory_limit_.load(std::memory_order_relaxed);
}

bool ResourceBudget::refuses(std::uint64_t bytes, const char* site,
                             std::uint64_t limit,
                             const char* counter) noexcept {
  if (!site_fires(site) && (limit == kUnlimited || bytes <= limit))
    return false;
  rejections_.fetch_add(1, std::memory_order_relaxed);
  bump(counter);
  return true;
}

bool ResourceBudget::check_memory(std::uint64_t bytes,
                                  const char* site) noexcept {
  return !refuses(bytes, site, memory_limit(), "res.reject.memory");
}

void ResourceBudget::require_memory(std::uint64_t bytes, const char* site) {
  const std::uint64_t limit = memory_limit();
  if (refuses(bytes, site, limit, "res.reject.memory"))
    throw ResourceError(ResourceKind::kMemory, site, bytes,
                        limit == kUnlimited
                            ? std::numeric_limits<std::uint64_t>::max()
                            : limit);
}

void ResourceBudget::set_scratch_limit(std::uint64_t bytes) noexcept {
  scratch_limit_.store(bytes, std::memory_order_relaxed);
}

std::uint64_t ResourceBudget::scratch_limit() const noexcept {
  return scratch_limit_.load(std::memory_order_relaxed);
}

void ResourceBudget::require_scratch(std::uint64_t bytes, const char* site) {
  const std::uint64_t limit = scratch_limit();
  if (refuses(bytes, site, limit, "res.reject.scratch"))
    throw ResourceError(ResourceKind::kScratch, site, bytes, limit);
}

std::uint64_t ResourceBudget::rejections() const noexcept {
  return rejections_.load(std::memory_order_relaxed);
}

void ResourceBudget::reset() noexcept {
  memory_limit_.store(kUnlimited, std::memory_order_relaxed);
  scratch_limit_.store(kUnlimited, std::memory_order_relaxed);
  rejections_.store(0, std::memory_order_relaxed);
}

void configure_from_env() {
  auto& budget = ResourceBudget::global();
  if (const std::uint64_t mb = env_mb("SSSP_MEM_BUDGET_MB"); mb > 0)
    budget.set_memory_limit(mb * 1024 * 1024);
  if (const std::uint64_t mb = env_mb("SSSP_SCRATCH_BUDGET_MB"); mb > 0)
    budget.set_scratch_limit(mb * 1024 * 1024);
}

void install_io_failpoints() { util::set_write_fault_hook(&io_failpoint_hook); }

}  // namespace sssp::res
