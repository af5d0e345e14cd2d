#include "evidence/coreset/budget.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "coreset/matching_coresets.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

TEST(TruncateToBudget, NoopWhenUnderBudget) {
  EdgeList summary(10);
  summary.add(0, 1);
  Rng rng(1);
  const EdgeList out =
      truncate_to_budget(summary, summary, 5, BudgetPolicy::kRandom, rng);
  EXPECT_EQ(out.num_edges(), 1u);
}

TEST(TruncateToBudget, RandomPolicyExactBudget) {
  Rng rng(2);
  const EdgeList summary = random_perfect_matching(100, rng);
  const EdgeList out =
      truncate_to_budget(summary, summary, 30, BudgetPolicy::kRandom, rng);
  EXPECT_EQ(out.num_edges(), 30u);
  EXPECT_FALSE(out.has_parallel_edges());
}

TEST(TruncateToBudget, FirstPolicyKeepsPrefix) {
  EdgeList summary(10);
  summary.add(0, 1);
  summary.add(2, 3);
  summary.add(4, 5);
  Rng rng(3);
  const EdgeList out =
      truncate_to_budget(summary, summary, 2, BudgetPolicy::kFirst, rng);
  ASSERT_EQ(out.num_edges(), 2u);
  EXPECT_EQ(out[0], make_edge(0, 1));
  EXPECT_EQ(out[1], make_edge(2, 3));
}

TEST(TruncateToBudget, DegreePoliciesOrderByLocalDegree) {
  // Piece: star at 0 over 1..4 plus isolated edge (5,6). Summary holds the
  // star edge (0,1) (endpoint degrees 4+1=5) and edge (5,6) (1+1=2).
  EdgeList piece(7);
  for (VertexId v = 1; v <= 4; ++v) piece.add(0, v);
  piece.add(5, 6);
  EdgeList summary(7);
  summary.add(0, 1);
  summary.add(5, 6);
  Rng rng(4);
  const EdgeList low =
      truncate_to_budget(summary, piece, 1, BudgetPolicy::kLowDegreeFirst, rng);
  ASSERT_EQ(low.num_edges(), 1u);
  EXPECT_EQ(low[0], make_edge(5, 6));
  const EdgeList high =
      truncate_to_budget(summary, piece, 1, BudgetPolicy::kHighDegreeFirst, rng);
  ASSERT_EQ(high.num_edges(), 1u);
  EXPECT_EQ(high[0], make_edge(0, 1));
}

TEST(BudgetedMatchingCoreset, WrapsInnerAndTruncates) {
  Rng rng(5);
  const EdgeList el = random_perfect_matching(200, rng);
  auto inner = std::make_shared<MaximumMatchingCoreset>();
  const BudgetedMatchingCoreset budgeted(inner, 50, BudgetPolicy::kRandom);
  PartitionContext ctx{400, 1, 0, 200};
  const EdgeList out = budgeted.build(el, ctx, rng);
  EXPECT_EQ(out.num_edges(), 50u);
}

TEST(BudgetedMatchingCoreset, NameEncodesPolicyAndBudget) {
  auto inner = std::make_shared<MaximumMatchingCoreset>();
  const BudgetedMatchingCoreset budgeted(inner, 7, BudgetPolicy::kLowDegreeFirst);
  const std::string n = budgeted.name();
  EXPECT_NE(n.find("budget=7"), std::string::npos);
  EXPECT_NE(n.find("low-degree"), std::string::npos);
}

TEST(BudgetPolicyName, AllNamed) {
  EXPECT_STREQ(budget_policy_name(BudgetPolicy::kRandom), "random");
  EXPECT_STREQ(budget_policy_name(BudgetPolicy::kFirst), "first");
  EXPECT_STREQ(budget_policy_name(BudgetPolicy::kLowDegreeFirst), "low-degree");
  EXPECT_STREQ(budget_policy_name(BudgetPolicy::kHighDegreeFirst), "high-degree");
}

}  // namespace
}  // namespace rcc
