// ResourceBudget (res/budget.hpp): the process-wide memory/scratch/fd
// governor every large-allocation site consults. The contracts under
// test: charges are accounted and released exactly, refusals are
// structured (ResourceError with kind/site/requested/available), every
// charge site doubles as a failpoint, and the fd probe reads real
// /proc/self/fd state.
#include "res/budget.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <limits>

#include "fault/failpoint.hpp"

namespace sssp::res {
namespace {

class BudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ResourceBudget::global().reset();
    fault::FailpointRegistry::global().disarm_all();
  }
  void TearDown() override {
    ResourceBudget::global().reset();
    fault::FailpointRegistry::global().disarm_all();
  }
};

TEST_F(BudgetTest, UnlimitedByDefault) {
  auto& budget = ResourceBudget::global();
  EXPECT_EQ(budget.memory_limit(), kUnlimited);
  EXPECT_TRUE(budget.try_charge_memory(1ULL << 40, "res.test"));
  EXPECT_EQ(budget.memory_used(), 1ULL << 40);
  budget.release_memory(1ULL << 40);
  EXPECT_EQ(budget.memory_used(), 0u);
}

TEST_F(BudgetTest, ChargeAndReleaseAccounting) {
  auto& budget = ResourceBudget::global();
  budget.set_memory_limit(1000);
  EXPECT_TRUE(budget.try_charge_memory(600, "res.test"));
  EXPECT_EQ(budget.memory_available(), 400u);
  EXPECT_FALSE(budget.try_charge_memory(401, "res.test"));
  EXPECT_TRUE(budget.try_charge_memory(400, "res.test"));
  EXPECT_EQ(budget.memory_available(), 0u);
  budget.release_memory(600);
  budget.release_memory(400);
  EXPECT_EQ(budget.memory_used(), 0u);
}

TEST_F(BudgetTest, ThrowingFormCarriesStructuredFields) {
  auto& budget = ResourceBudget::global();
  budget.set_memory_limit(100);
  try {
    budget.charge_memory(250, "res.test.site");
    FAIL() << "charge over budget did not throw";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.kind(), ResourceKind::kMemory);
    EXPECT_EQ(e.site(), "res.test.site");
    EXPECT_EQ(e.requested(), 250u);
    EXPECT_EQ(e.available(), 100u);
  }
  EXPECT_EQ(budget.memory_used(), 0u) << "failed charge must not stick";
}

TEST_F(BudgetTest, RequireMemoryChecksWithoutHoldingACharge) {
  auto& budget = ResourceBudget::global();
  budget.set_memory_limit(1000);
  EXPECT_NO_THROW(budget.require_memory(900, "res.test"));
  EXPECT_EQ(budget.memory_used(), 0u);
  EXPECT_THROW(budget.require_memory(1100, "res.test"), ResourceError);
  EXPECT_GE(budget.snapshot().memory_peak, 900u);
}

TEST_F(BudgetTest, CheckMemoryIsNonThrowingAndHoldsNothing) {
  auto& budget = ResourceBudget::global();
  budget.set_memory_limit(100);
  EXPECT_TRUE(budget.check_memory(50, "res.test"));
  EXPECT_FALSE(budget.check_memory(200, "res.test"));
  EXPECT_EQ(budget.memory_used(), 0u);
}

TEST_F(BudgetTest, SiteFailpointForcesRefusal) {
  auto& budget = ResourceBudget::global();
  // No limit set: only the armed failpoint can cause a refusal.
  fault::FailpointRegistry::global().arm("res.engine.alloc");
  EXPECT_FALSE(budget.try_charge_memory(1, "res.engine.alloc"));
  EXPECT_TRUE(budget.try_charge_memory(1, "res.other.site"));
  budget.release_memory(1);
  fault::FailpointRegistry::global().disarm_all();
}

TEST_F(BudgetTest, GenericFailpointForcesRefusalAtEverySite) {
  auto& budget = ResourceBudget::global();
  fault::FailpointRegistry::global().arm("res.alloc.fail");
  EXPECT_FALSE(budget.try_charge_memory(1, "res.engine.alloc"));
  EXPECT_FALSE(budget.check_memory(1, "res.serve.admit"));
  EXPECT_THROW(budget.require_memory(1, "res.graph.alloc"), ResourceError);
  EXPECT_GE(budget.snapshot().rejections, 3u);
  fault::FailpointRegistry::global().disarm_all();
}

TEST_F(BudgetTest, ScratchBudgetIsIndependentOfMemory) {
  auto& budget = ResourceBudget::global();
  budget.set_memory_limit(10);
  budget.set_scratch_limit(1000);
  EXPECT_TRUE(budget.try_charge_scratch(800, "res.ckpt.scratch"));
  EXPECT_FALSE(budget.try_charge_scratch(300, "res.ckpt.scratch"));
  budget.release_scratch(800);
  EXPECT_EQ(budget.scratch_used(), 0u);
}

TEST_F(BudgetTest, OpenFdCountSeesNewDescriptors) {
  const int before = ResourceBudget::open_fd_count();
  ASSERT_GT(before, 0) << "/proc/self/fd should be readable on Linux";
  const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(ResourceBudget::open_fd_count(), before + 1);
  ::close(fd);
  EXPECT_EQ(ResourceBudget::open_fd_count(), before);
}

TEST_F(BudgetTest, FdRequireHonorsHeadroom) {
  auto& budget = ResourceBudget::global();
  const std::uint64_t limit = ResourceBudget::fd_limit();
  const int open = ResourceBudget::open_fd_count();
  ASSERT_GT(open, 0);
  // Demanding more fds than could possibly remain must refuse.
  EXPECT_FALSE(budget.try_require_fds(limit, "res.test.fds"));
  // A single fd within a generous limit must pass.
  budget.set_fd_headroom(1);
  EXPECT_TRUE(budget.try_require_fds(1, "res.test.fds"));
}

TEST_F(BudgetTest, MemoryReservationReleasesOnScopeExit) {
  auto& budget = ResourceBudget::global();
  budget.set_memory_limit(1000);
  {
    auto r = MemoryReservation::try_reserve(budget, 700, "res.test");
    EXPECT_TRUE(r.held());
    EXPECT_EQ(budget.memory_used(), 700u);
    auto refused = MemoryReservation::try_reserve(budget, 700, "res.test");
    EXPECT_FALSE(refused.held());
  }
  EXPECT_EQ(budget.memory_used(), 0u);
}

TEST_F(BudgetTest, MemoryReservationMoveTransfersOwnership) {
  auto& budget = ResourceBudget::global();
  auto a = MemoryReservation::try_reserve(budget, 64, "res.test");
  ASSERT_TRUE(a.held());
  MemoryReservation b = std::move(a);
  EXPECT_FALSE(a.held());
  EXPECT_TRUE(b.held());
  EXPECT_EQ(budget.memory_used(), 64u);
  b.release();
  EXPECT_EQ(budget.memory_used(), 0u);
}

TEST_F(BudgetTest, SnapshotTracksPeakAndRejections) {
  auto& budget = ResourceBudget::global();
  budget.set_memory_limit(100);
  EXPECT_TRUE(budget.try_charge_memory(90, "res.test"));
  EXPECT_FALSE(budget.try_charge_memory(90, "res.test"));
  budget.release_memory(90);
  const auto snap = budget.snapshot();
  EXPECT_EQ(snap.memory_limit, 100u);
  EXPECT_EQ(snap.memory_used, 0u);
  EXPECT_GE(snap.memory_peak, 90u);
  EXPECT_GE(snap.rejections, 1u);
}

}  // namespace
}  // namespace sssp::res
