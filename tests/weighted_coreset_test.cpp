// Tests for the Crouch-Stubbs weighted matching coreset (R6).
#include "coreset/weighted_coreset.hpp"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "partition/sharded_partition.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

WeightedEdgeList random_weighted_bipartite(VertexId side, double p, double wmax,
                                           Rng& rng) {
  WeightedEdgeList w;
  w.num_vertices = 2 * side;
  for (VertexId u = 0; u < side; ++u) {
    for (VertexId v = side; v < 2 * side; ++v) {
      if (rng.bernoulli(p)) w.add(u, v, rng.uniform_real(0.5, wmax));
    }
  }
  return w;
}

TEST(CrouchStubbsCoreset, SummaryEdgesComeFromPiece) {
  Rng rng(1);
  const WeightedEdgeList piece = random_weighted_bipartite(40, 0.1, 64.0, rng);
  PartitionContext ctx{piece.num_vertices, 4, 0, 40};
  const WeightedCoresetOutput out = crouch_stubbs_coreset(piece, ctx);
  std::set<std::pair<VertexId, VertexId>> present;
  for (const auto& we : piece.edges) {
    present.insert({we.edge().u, we.edge().v});
  }
  for (const auto& we : out.edges.edges) {
    EXPECT_TRUE(present.count({we.edge().u, we.edge().v}));
  }
}

TEST(CrouchStubbsCoreset, SizeBoundedByClassesTimesMatching) {
  // Each weight class contributes a matching (<= side edges); with weights
  // in [0.5, 64] there are ~8 classes.
  Rng rng(2);
  const VertexId side = 50;
  const WeightedEdgeList piece =
      random_weighted_bipartite(side, 0.2, 64.0, rng);
  PartitionContext ctx{piece.num_vertices, 4, 0, side};
  const WeightedCoresetOutput out = crouch_stubbs_coreset(piece, ctx);
  EXPECT_LE(out.size_items(), 9u * side);
}

TEST(ComposeWeightedCoresets, EndToEndApproximation) {
  // Distributed Crouch-Stubbs versus the centralized greedy baseline: the
  // composed matching should reach at least ~1/4 of the centralized greedy
  // weight (greedy is itself a 1/2-approximation, so this is a loose,
  // robust end-to-end sanity bound).
  Rng rng(3);
  const VertexId side = 120;
  const WeightedEdgeList graph =
      random_weighted_bipartite(side, 0.05, 100.0, rng);
  const std::size_t k = 6;
  const auto parts = shard_random(graph, k, rng);

  std::vector<WeightedCoresetOutput> summaries;
  for (std::size_t i = 0; i < k; ++i) {
    PartitionContext ctx{graph.num_vertices, k, i, side};
    summaries.push_back(crouch_stubbs_coreset(shard_span(parts, i), ctx));
  }
  const Matching composed =
      compose_weighted_coresets(summaries, graph.num_vertices, side);
  EXPECT_TRUE(composed.valid());

  const double composed_weight = matching_weight(composed, graph);
  const double central_greedy =
      matching_weight(greedy_weighted_matching(graph), graph);
  EXPECT_GE(composed_weight * 4.0, central_greedy);
}

TEST(ComposeWeightedCoresets, EmptySummariesYieldEmptyMatching) {
  std::vector<WeightedCoresetOutput> summaries(3);
  for (auto& s : summaries) s.edges.num_vertices = 10;
  const Matching m = compose_weighted_coresets(summaries, 10);
  EXPECT_EQ(m.size(), 0u);
}

}  // namespace
}  // namespace rcc
