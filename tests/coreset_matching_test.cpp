// Tests for Theorem 1's coreset and its negative counterpart (R1a, R1c).
#include "coreset/matching_coresets.hpp"

#include <gtest/gtest.h>

#include "coreset/compose.hpp"
#include "evidence/coreset/adversarial.hpp"
#include "evidence/graph/properties.hpp"
#include "graph/generators.hpp"
#include "matching/max_matching.hpp"
#include "partition/sharded_partition.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

TEST(MaximumMatchingCoreset, OutputIsAMaximumMatchingOfThePiece) {
  Rng rng(1);
  const EdgeList el = gnp(300, 0.05, rng);
  const auto parts = shard_random(el, 4, rng);
  const MaximumMatchingCoreset coreset;
  for (std::size_t i = 0; i < 4; ++i) {
    PartitionContext ctx{300, 4, i, 0};
    const EdgeList summary = coreset.build(shard_span(parts, i), ctx, rng);
    EXPECT_TRUE(is_matching(summary));
    EXPECT_EQ(summary.num_edges(), maximum_matching_size(shard_span(parts, i)));
  }
}

TEST(MaximumMatchingCoreset, SizeIsAtMostNOverTwo) {
  Rng rng(2);
  const VertexId n = 500;
  const EdgeList el = gnp(n, 0.1, rng);
  const auto parts = shard_random(el, 3, rng);
  const MaximumMatchingCoreset coreset;
  PartitionContext ctx{n, 3, 0, 0};
  EXPECT_LE(coreset.build(shard_span(parts, 0), ctx, rng).num_edges(), n / 2);
}

// Theorem 1's guarantee: composed coresets contain a matching within a
// constant factor (the paper proves <= 9) of MM(G). Empirically the factor
// is much smaller; we assert the paper's bound which makes this test robust.
class Theorem1Sweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Theorem1Sweep, ComposedRatioWithinPaperBound) {
  const auto [seed, k] = GetParam();
  Rng rng(seed);
  const VertexId n = 1200;
  const EdgeList el = gnp(n, 4.0 / n, rng);
  const std::size_t opt = maximum_matching_size(el);
  ASSERT_GT(opt, 0u);

  const MaximumMatchingCoreset coreset;
  const auto parts = shard_random(el, k, rng);
  std::vector<EdgeList> summaries;
  for (std::size_t i = 0; i < static_cast<std::size_t>(k); ++i) {
    PartitionContext ctx{n, static_cast<std::size_t>(k), i, 0};
    summaries.push_back(coreset.build(shard_span(parts, i), ctx, rng));
  }
  const Matching composed =
      compose_matching_coresets(summaries, ComposeSolver::kMaximum, 0, rng);
  EXPECT_TRUE(composed.valid());
  EXPECT_TRUE(composed.subset_of(el));
  EXPECT_GE(9 * composed.size(), opt);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Theorem1Sweep,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(2, 4, 8, 16)));

TEST(GreedyMatchCombiner, TraceIsMonotoneAndMatchesPaperAlgorithm) {
  Rng rng(3);
  const VertexId n = 800;
  const EdgeList el = gnp(n, 5.0 / n, rng);
  const auto parts = shard_random(el, 6, rng);
  PartitionContext ctx{n, 6, 0, 0};
  const GreedyMatchTrace trace = greedy_match(parts, ctx, rng);
  ASSERT_EQ(trace.step_sizes.size(), 6u);
  for (std::size_t i = 1; i < trace.step_sizes.size(); ++i) {
    EXPECT_GE(trace.step_sizes[i], trace.step_sizes[i - 1]);
  }
  EXPECT_EQ(trace.matching.size(), trace.step_sizes.back());
  EXPECT_TRUE(trace.matching.valid());
  EXPECT_TRUE(trace.matching.subset_of(el));
  // Lemma 3.1: the result is a constant-factor approximation.
  EXPECT_GE(9 * trace.matching.size(), maximum_matching_size(el));
}

TEST(MaximalMatchingCoreset, ProducesMaximalMatchingOfPiece) {
  Rng rng(4);
  const EdgeList el = gnp(200, 0.1, rng);
  const auto parts = shard_random(el, 2, rng);
  const MaximalMatchingCoreset coreset(GreedyOrder::kRandom);
  PartitionContext ctx{200, 2, 0, 0};
  const EdgeList summary = coreset.build(shard_span(parts, 0), ctx, rng);
  EXPECT_TRUE(is_matching(summary));
  EXPECT_TRUE(Matching::from_edges(summary).maximal_in(shard_span(parts, 0)));
}

TEST(SubsampledCoreset, ExpectedSizeShrinksByAlpha) {
  Rng rng(5);
  const EdgeList el = random_perfect_matching(4000, rng);  // MM of piece = piece
  const double alpha = 4.0;
  const SubsampledMatchingCoreset coreset(alpha);
  PartitionContext ctx{8000, 1, 0, 4000};
  double total = 0;
  const int reps = 20;
  for (int r = 0; r < reps; ++r) {
    total += static_cast<double>(coreset.build(el, ctx, rng).num_edges());
  }
  EXPECT_NEAR(total / reps / 4000.0, 1.0 / alpha, 0.03);
}

TEST(SubsampledCoresetDeathTest, AlphaBelowOneRejected) {
  EXPECT_DEATH(SubsampledMatchingCoreset(0.5), "RCC_CHECK");
}

// R1c: the hub-gadget adversary drives the maximal-matching coreset to a
// Theta(k) approximation while the maximum-matching coreset stays near 1.
TEST(AdversarialMaximalCoreset, OmegaKGapOnHubGadget) {
  Rng rng(6);
  const VertexId pairs = 4096;
  const std::size_t k = 16;
  const HubGadget gadget = hub_gadget(pairs, static_cast<VertexId>(2 * pairs / k));
  const auto parts = shard_random(gadget.edges, k, rng);

  auto compose_with = [&](const MatchingCoreset& coreset) {
    std::vector<EdgeList> summaries;
    for (std::size_t i = 0; i < k; ++i) {
      PartitionContext ctx{gadget.edges.num_vertices(), k, i, gadget.left_size};
      summaries.push_back(coreset.build(shard_span(parts, i), ctx, rng));
    }
    return compose_matching_coresets(summaries, ComposeSolver::kMaximum,
                                     gadget.left_size, rng);
  };

  const HubAdversarialMaximalCoreset bad(gadget);
  const MaximumMatchingCoreset good;
  const std::size_t opt = pairs;  // the planted perfect matching on pairs
  const std::size_t bad_size = compose_with(bad).size();
  const std::size_t good_size = compose_with(good).size();

  const double bad_ratio = static_cast<double>(opt) / bad_size;
  const double good_ratio = static_cast<double>(opt) / good_size;
  EXPECT_GE(bad_ratio, static_cast<double>(k) / 4.0);
  EXPECT_LE(good_ratio, 1.5);
}

TEST(CoresetNames, AreDistinct) {
  const MaximumMatchingCoreset a;
  const MaximalMatchingCoreset b(GreedyOrder::kGiven);
  const SubsampledMatchingCoreset c(2.0);
  EXPECT_NE(a.name(), b.name());
  EXPECT_NE(a.name(), c.name());
}

}  // namespace
}  // namespace rcc
