// Tests for the Hidden Vertex Problem game (Theorem 6's core gadget).
#include "evidence/lower_bounds/hvp.hpp"

#include <gtest/gtest.h>

#include <set>

namespace rcc {
namespace {

TEST(HvpInstance, WellFormed) {
  Rng rng(1);
  const HvpInstance inst = make_hvp(10000, 500, rng);
  EXPECT_EQ(inst.s.size(), 500u);
  EXPECT_EQ(inst.t.size(), 500u);
  std::set<std::uint32_t> s_set(inst.s.begin(), inst.s.end());
  std::set<std::uint32_t> t_set(inst.t.begin(), inst.t.end());
  EXPECT_EQ(s_set.size(), 500u);
  EXPECT_EQ(t_set.size(), 500u);
  // |S \ T| = 1 and it is the hidden element.
  std::vector<std::uint32_t> diff;
  for (auto x : s_set) {
    if (!t_set.count(x)) diff.push_back(x);
  }
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0], inst.hidden);
  EXPECT_FALSE(t_set.count(inst.hidden));
}

TEST(HvpProtocol, FullBudgetAlwaysSucceedsWithSingletonOutput) {
  Rng rng(2);
  for (int rep = 0; rep < 20; ++rep) {
    const HvpInstance inst = make_hvp(5000, 200, rng);
    const HvpOutcome out = run_budgeted_hvp(inst, 200, 0, rng);
    EXPECT_TRUE(out.success);
    EXPECT_EQ(out.output_size, 1u);
    EXPECT_EQ(out.message_words, 200u);
  }
}

TEST(HvpProtocol, ZeroBudgetZeroFallbackFails) {
  Rng rng(3);
  const HvpInstance inst = make_hvp(5000, 200, rng);
  const HvpOutcome out = run_budgeted_hvp(inst, 0, 0, rng);
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.output_size, 0u);
}

TEST(HvpProtocol, SuccessRateTracksBudgetFraction) {
  Rng rng(4);
  const std::size_t m = 400;
  const int trials = 400;
  for (double frac : {0.25, 0.5}) {
    int successes = 0;
    for (int t = 0; t < trials; ++t) {
      const HvpInstance inst = make_hvp(20000, m, rng);
      const auto budget = static_cast<std::size_t>(frac * m);
      if (run_budgeted_hvp(inst, budget, 0, rng).success) ++successes;
    }
    EXPECT_NEAR(static_cast<double>(successes) / trials, frac, 0.08);
  }
}

TEST(HvpProtocol, FallbackBuysSuccessProportionalToItsSize) {
  // With zero budget, success comes only from the blind fallback guess:
  // fallback / (universe - m).
  Rng rng(5);
  const std::uint64_t universe = 2000;
  const std::size_t m = 200;
  const std::size_t fallback = 900;  // half of U \ T
  const int trials = 400;
  int successes = 0;
  for (int t = 0; t < trials; ++t) {
    const HvpInstance inst = make_hvp(universe, m, rng);
    if (run_budgeted_hvp(inst, 0, fallback, rng).success) ++successes;
  }
  EXPECT_NEAR(static_cast<double>(successes) / trials,
              static_cast<double>(fallback) / (universe - m), 0.08);
}

TEST(HvpProtocol, OutputSizeEqualsFallbackOnMiss) {
  Rng rng(6);
  const HvpInstance inst = make_hvp(5000, 200, rng);
  const HvpOutcome out = run_budgeted_hvp(inst, 0, 37, rng);
  EXPECT_EQ(out.output_size, 37u);
}

}  // namespace
}  // namespace rcc
