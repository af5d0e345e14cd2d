// Ablations: algorithm independence of the matching coreset (Section 1.2's
// "no prior coordination" claim) and coordinator solver choice.
#include <gtest/gtest.h>

#include "coreset/compose.hpp"
#include "coreset/matching_coresets.hpp"
#include "evidence/coreset/mixed.hpp"
#include "evidence/graph/properties.hpp"
#include "graph/generators.hpp"
#include "matching/max_matching.hpp"
#include "partition/sharded_partition.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

TEST(MixedCoreset, EverySummaryIsAMaximumMatchingOfItsPiece) {
  Rng rng(1);
  const VertexId side = 600;
  const EdgeList el = random_bipartite(side, side, 6.0 / side, rng);
  const std::size_t k = 6;
  const auto parts = shard_random(el, k, rng);
  const MixedMaximumMatchingCoreset coreset;
  for (std::size_t i = 0; i < k; ++i) {
    PartitionContext ctx{2 * side, k, i, side};
    const EdgeSpan piece = shard_span(parts, i);
    const EdgeList summary = coreset.build(piece, ctx, rng);
    EXPECT_TRUE(is_matching(summary));
    EXPECT_EQ(summary.num_edges(), maximum_matching_size(piece, side))
        << "machine " << i;
  }
}

TEST(MixedCoreset, ComposedQualityMatchesSingleAlgorithm) {
  Rng rng(2);
  const VertexId n = 2000;
  const EdgeList el = gnp(n, 5.0 / n, rng);
  const std::size_t k = 9;
  const auto parts = shard_random(el, k, rng);

  auto compose_with = [&](const MatchingCoreset& coreset) {
    std::vector<EdgeList> summaries;
    for (std::size_t i = 0; i < k; ++i) {
      PartitionContext ctx{n, k, i, 0};
      summaries.push_back(coreset.build(shard_span(parts, i), ctx, rng));
    }
    return compose_matching_coresets(summaries, ComposeSolver::kMaximum, 0, rng)
        .size();
  };

  const std::size_t single = compose_with(MaximumMatchingCoreset{});
  const std::size_t mixed = compose_with(MixedMaximumMatchingCoreset{});
  // Theorem 1 is algorithm-agnostic: sizes should be within a few percent.
  const double rel = static_cast<double>(mixed) / static_cast<double>(single);
  EXPECT_GT(rel, 0.9);
  EXPECT_LT(rel, 1.1);
}

TEST(ComposeSolver, GreedyIsWithinTwiceOfMaximum) {
  Rng rng(3);
  const VertexId n = 3000;
  const EdgeList el = gnp(n, 6.0 / n, rng);
  const std::size_t k = 8;
  const auto parts = shard_random(el, k, rng);
  const MaximumMatchingCoreset coreset;
  std::vector<EdgeList> summaries;
  for (std::size_t i = 0; i < k; ++i) {
    PartitionContext ctx{n, k, i, 0};
    summaries.push_back(coreset.build(shard_span(parts, i), ctx, rng));
  }
  const std::size_t exact =
      compose_matching_coresets(summaries, ComposeSolver::kMaximum, 0, rng).size();
  const std::size_t greedy =
      compose_matching_coresets(summaries, ComposeSolver::kGreedy, 0, rng).size();
  EXPECT_GE(2 * greedy, exact);
  EXPECT_LE(greedy, exact);
}

class MixedSweep : public ::testing::TestWithParam<int> {};

TEST_P(MixedSweep, ConstantFactorAcrossSeeds) {
  Rng rng(GetParam());
  const VertexId n = 1500;
  const EdgeList el = gnp(n, 4.0 / n, rng);
  const std::size_t opt = maximum_matching_size(el);
  const std::size_t k = 6;
  const auto parts = shard_random(el, k, rng);
  const MixedMaximumMatchingCoreset coreset;
  std::vector<EdgeList> summaries;
  for (std::size_t i = 0; i < k; ++i) {
    PartitionContext ctx{n, k, i, 0};
    summaries.push_back(coreset.build(shard_span(parts, i), ctx, rng));
  }
  const Matching composed =
      compose_matching_coresets(summaries, ComposeSolver::kMaximum, 0, rng);
  EXPECT_GE(9 * composed.size(), opt);
  EXPECT_TRUE(composed.subset_of(el));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedSweep, ::testing::Range(1, 9));

}  // namespace
}  // namespace rcc
