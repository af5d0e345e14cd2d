// Tests for the MatchingRecovery game (Lemma 5.1's operative bound).
#include "evidence/lower_bounds/matching_recovery.hpp"

#include <gtest/gtest.h>

#include <set>

namespace rcc {
namespace {

TEST(MatchingRecoveryInstance, BlockStructureIsAMatching) {
  Rng rng(1);
  const MatchingRecoveryInstance inst = make_matching_recovery(1000, 40, rng);
  EXPECT_EQ(inst.c, 25u);
  // alice_mate is a bijection inside every block.
  std::set<VertexId> seen;
  for (VertexId left = 0; left < inst.t; ++left) {
    const VertexId right = inst.alice_mate[left];
    EXPECT_TRUE(seen.insert(right).second);
    if (left < inst.c * inst.p) {
      EXPECT_EQ(inst.block_of_left(left), right / inst.p)
          << "matched across blocks";
    }
  }
  EXPECT_LT(inst.bob_block, inst.c);
}

TEST(MatchingRecoveryInstance, LeftoverTailIsMatchedWithinItself) {
  Rng rng(2);
  const MatchingRecoveryInstance inst = make_matching_recovery(103, 10, rng);
  EXPECT_EQ(inst.c, 10u);
  for (VertexId left = 100; left < 103; ++left) {
    EXPECT_GE(inst.alice_mate[left], 100u);
  }
}

TEST(MatchingRecoveryProtocol, FullBudgetRecoversWholeBlock) {
  Rng rng(3);
  const MatchingRecoveryInstance inst = make_matching_recovery(500, 20, rng);
  const MatchingRecoveryOutcome out =
      run_budgeted_matching_recovery(inst, 500, rng);
  EXPECT_EQ(out.recovered_edges, 20u);  // all of Bob's block
  EXPECT_EQ(out.message_words, 1000u);
}

TEST(MatchingRecoveryProtocol, ZeroBudgetRecoversNothing) {
  Rng rng(4);
  const MatchingRecoveryInstance inst = make_matching_recovery(500, 20, rng);
  const MatchingRecoveryOutcome out =
      run_budgeted_matching_recovery(inst, 0, rng);
  EXPECT_EQ(out.recovered_edges, 0u);
}

TEST(MatchingRecoveryProtocol, ExpectedRecoveryIsBudgetOverBlocks) {
  // Lemma 5.1's shape: E[recovered] = budget * p/t = budget / c.
  Rng rng(5);
  const VertexId t = 2000, p = 50;  // c = 40 blocks
  const std::size_t budget = 400;
  const int trials = 300;
  double total = 0.0;
  for (int rep = 0; rep < trials; ++rep) {
    const MatchingRecoveryInstance inst = make_matching_recovery(t, p, rng);
    total += static_cast<double>(
        run_budgeted_matching_recovery(inst, budget, rng).recovered_edges);
  }
  const double expected = static_cast<double>(budget) / 40.0;  // = 10
  EXPECT_NEAR(total / trials, expected, 1.0);
}

TEST(MatchingRecoveryProtocol, RecoveryLinearInBudget) {
  Rng rng(6);
  const VertexId t = 4000, p = 100;
  auto mean_recovered = [&](std::size_t budget) {
    double total = 0.0;
    const int trials = 100;
    for (int rep = 0; rep < trials; ++rep) {
      const MatchingRecoveryInstance inst = make_matching_recovery(t, p, rng);
      total += static_cast<double>(
          run_budgeted_matching_recovery(inst, budget, rng).recovered_edges);
    }
    return total / trials;
  };
  const double at_400 = mean_recovered(400);
  const double at_1600 = mean_recovered(1600);
  EXPECT_NEAR(at_1600 / std::max(at_400, 1e-9), 4.0, 1.0);
}

}  // namespace
}  // namespace rcc
