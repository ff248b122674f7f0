// ResourceBudget (res/budget.hpp): the process-wide memory/scratch
// limits every large-allocation site consults. The contracts under
// test: nothing is limited by default, refusals are structured
// (ResourceError with kind/site/requested/available) and counted, and
// every check site doubles as a failpoint.
#include "res/budget.hpp"

#include <gtest/gtest.h>

#include <cstdint>

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
  EXPECT_EQ(budget.scratch_limit(), kUnlimited);
  EXPECT_TRUE(budget.check_memory(1ULL << 40, "res.test"));
  EXPECT_NO_THROW(budget.require_scratch(1ULL << 40, "res.test"));
  EXPECT_EQ(budget.rejections(), 0u);
}

TEST_F(BudgetTest, ThrowingFormCarriesStructuredFields) {
  auto& budget = ResourceBudget::global();
  budget.set_memory_limit(100);
  EXPECT_NO_THROW(budget.require_memory(100, "res.test.site"));
  try {
    budget.require_memory(250, "res.test.site");
    FAIL() << "require over budget did not throw";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.kind(), ResourceKind::kMemory);
    EXPECT_EQ(e.site(), "res.test.site");
    EXPECT_EQ(e.requested(), 250u);
    EXPECT_EQ(e.available(), 100u);
  }
  EXPECT_EQ(budget.rejections(), 1u);
}

TEST_F(BudgetTest, CheckMemoryIsNonThrowingAndHoldsNothing) {
  auto& budget = ResourceBudget::global();
  budget.set_memory_limit(100);
  EXPECT_TRUE(budget.check_memory(60, "res.test"));
  EXPECT_FALSE(budget.check_memory(200, "res.test"));
  // A check holds nothing: a second 60 still fits under 100.
  EXPECT_TRUE(budget.check_memory(60, "res.test"));
}

TEST_F(BudgetTest, SiteFailpointForcesRefusal) {
  auto& budget = ResourceBudget::global();
  // No limit set: only the armed failpoint can cause a refusal.
  fault::FailpointRegistry::global().arm("res.engine.alloc");
  EXPECT_FALSE(budget.check_memory(1, "res.engine.alloc"));
  EXPECT_TRUE(budget.check_memory(1, "res.other.site"));
  fault::FailpointRegistry::global().disarm_all();
}

TEST_F(BudgetTest, GenericFailpointForcesRefusalAtEverySite) {
  auto& budget = ResourceBudget::global();
  fault::FailpointRegistry::global().arm("res.alloc.fail");
  EXPECT_FALSE(budget.check_memory(1, "res.engine.alloc"));
  EXPECT_FALSE(budget.check_memory(1, "res.serve.admit"));
  EXPECT_THROW(budget.require_memory(1, "res.graph.alloc"), ResourceError);
  EXPECT_THROW(budget.require_scratch(1, "res.ckpt.scratch"), ResourceError);
  EXPECT_GE(budget.rejections(), 4u);
  fault::FailpointRegistry::global().disarm_all();
}

TEST_F(BudgetTest, ScratchBudgetIsIndependentOfMemory) {
  auto& budget = ResourceBudget::global();
  budget.set_memory_limit(10);
  budget.set_scratch_limit(1000);
  EXPECT_NO_THROW(budget.require_scratch(800, "res.ckpt.scratch"));
  try {
    budget.require_scratch(1001, "res.ckpt.scratch");
    FAIL() << "scratch over budget did not throw";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.kind(), ResourceKind::kScratch);
    EXPECT_EQ(e.site(), "res.ckpt.scratch");
    EXPECT_EQ(e.requested(), 1001u);
    EXPECT_EQ(e.available(), 1000u);
  }
  EXPECT_FALSE(budget.check_memory(800, "res.test"));
}

}  // namespace
}  // namespace sssp::res
