// Process-wide resource limits (docs/ROBUSTNESS.md, "Resource budgets
// & exhaustion"). The big consumers — CSR graph load, the frontier
// engine's parallel scratch and high-water reserves, serve admission,
// checkpoint serialization — check the ResourceBudget *before*
// allocating or writing, so oversize work is rejected with a structured
// ResourceError (tools exit kExitResourceBudget) instead of dying in
// the OOM killer or an uncaught std::bad_alloc.
//
// Two limits, each a plain `bytes > limit` check (nothing is charged
// or held):
//   memory   bytes a site is about to need: the CSR arrays, the engine's
//            scratch, the projected footprint of the queries a server
//            would hold (not a malloc hook — small allocations are
//            deliberately unchecked).
//   scratch  bytes of the checkpoint image about to be written.
//
// Every check site doubles as a failpoint: check_memory(bytes, site)
// fires the failpoint named by `site` (e.g. "res.engine.alloc") plus
// the generic "res.alloc.fail", so CI can prove each degradation path
// without actually shrinking the machine. Layering: res sits between
// fault and graph (links fault + util), which also makes it the home
// of install_io_failpoints() — the glue that maps io.write.* failpoints
// onto util/atomic_file's hook, which util itself cannot reference.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace sssp::res {

enum class ResourceKind : std::uint8_t { kMemory = 0, kScratch = 1 };

const char* to_string(ResourceKind kind) noexcept;

// A limit was (or would be) exceeded. `site` names the check site —
// which is also the failpoint that can force this error in tests.
class ResourceError : public std::runtime_error {
 public:
  ResourceError(ResourceKind kind, std::string site, std::uint64_t requested,
                std::uint64_t available);

  ResourceKind kind() const noexcept { return kind_; }
  const std::string& site() const noexcept { return site_; }
  std::uint64_t requested() const noexcept { return requested_; }
  std::uint64_t available() const noexcept { return available_; }

 private:
  ResourceKind kind_;
  std::string site_;
  std::uint64_t requested_;
  std::uint64_t available_;
};

inline constexpr std::uint64_t kUnlimited = 0;  // limit value: no cap

class ResourceBudget {
 public:
  ResourceBudget() = default;
  ResourceBudget(const ResourceBudget&) = delete;
  ResourceBudget& operator=(const ResourceBudget&) = delete;

  // The process-wide instance every check site consults.
  static ResourceBudget& global();

  // ---- memory ----
  void set_memory_limit(std::uint64_t bytes) noexcept;
  std::uint64_t memory_limit() const noexcept;
  // Refuses `bytes` over the limit or when the `site` (or the generic
  // res.alloc.fail) failpoint fires. check_memory returns false, for
  // sites with a degradation path (skip a high-water reserve, fall back
  // to serial advance, shed a query); require_memory throws a
  // ResourceError. Both count the refusal in rejections() and the
  // `res.reject.memory` counter.
  bool check_memory(std::uint64_t bytes, const char* site) noexcept;
  void require_memory(std::uint64_t bytes, const char* site);

  // ---- scratch disk ----
  void set_scratch_limit(std::uint64_t bytes) noexcept;
  std::uint64_t scratch_limit() const noexcept;
  // Throwing check, counted under `res.reject.scratch`.
  void require_scratch(std::uint64_t bytes, const char* site);

  // Refusals since start (or the last reset()).
  std::uint64_t rejections() const noexcept;

  // Tests only: clears both limits and the rejection count.
  void reset() noexcept;

 private:
  // True (and counted under `counter`) when the request is refused.
  bool refuses(std::uint64_t bytes, const char* site, std::uint64_t limit,
               const char* counter) noexcept;

  std::atomic<std::uint64_t> memory_limit_{kUnlimited};
  std::atomic<std::uint64_t> scratch_limit_{kUnlimited};
  std::atomic<std::uint64_t> rejections_{0};
};

// Reads SSSP_MEM_BUDGET_MB / SSSP_SCRATCH_BUDGET_MB into the global
// budget (unset or unparsable values are ignored). Tools call this
// before flag parsing so --mem-budget-mb can override.
void configure_from_env();

// Installs the util/atomic_file write-fault hook that maps the
// `io.write.enospc` (inject ENOSPC) and `io.write.short` (halve the
// chunk) failpoints onto every atomic write. Idempotent; called from
// the tools' enable_faults().
void install_io_failpoints();

}  // namespace sssp::res
