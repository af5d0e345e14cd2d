// Structural white-box tests of the VC-Coreset peeling machinery: level
// thresholds, disjointness, and the relationship between fixed sets and
// residuals that Theorem 2's accounting relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "coreset/vc_coreset.hpp"
#include "graph/generators.hpp"
#include "matching/hopcroft_karp.hpp"
#include "partition/sharded_partition.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

TEST(VcCoresetStructure, FixedVerticesAreDistinct) {
  Rng rng(1);
  const VertexId n = 1 << 14;
  const EdgeList el = gnp(n, 24.0 / n, rng);
  const auto parts = shard_random(el, 4, rng);
  const PeelingVcCoreset coreset;
  PartitionContext ctx{n, 4, 0, 0};
  const VcCoresetOutput out = coreset.build(shard_span(parts, 0), ctx, rng);
  std::set<VertexId> unique(out.fixed_vertices.begin(), out.fixed_vertices.end());
  EXPECT_EQ(unique.size(), out.fixed_vertices.size());
}

TEST(VcCoresetStructure, FixedVerticesAbsentFromResidual) {
  Rng rng(2);
  const VertexId n = 1 << 14;
  const EdgeList el = gnp(n, 24.0 / n, rng);
  const auto parts = shard_random(el, 4, rng);
  const PeelingVcCoreset coreset;
  PartitionContext ctx{n, 4, 1, 0};
  const VcCoresetOutput out = coreset.build(shard_span(parts, 1), ctx, rng);
  std::set<VertexId> fixed(out.fixed_vertices.begin(), out.fixed_vertices.end());
  for (const Edge& e : out.residual_edges) {
    EXPECT_FALSE(fixed.count(e.u));
    EXPECT_FALSE(fixed.count(e.v));
  }
}

TEST(VcCoresetStructure, EveryPieceEdgeIsCoveredOrResidual) {
  // The soundness invariant of Section 3.2: any edge of G^(i) is incident
  // on some V_j^(i) (covered by the fixed set) or survives into G_Delta.
  Rng rng(3);
  const VertexId n = 1 << 13;
  const EdgeList el = gnp(n, 16.0 / n, rng);
  const auto parts = shard_random(el, 4, rng);
  const PeelingVcCoreset coreset;
  PartitionContext ctx{n, 4, 2, 0};
  const VcCoresetOutput out = coreset.build(shard_span(parts, 2), ctx, rng);
  std::vector<bool> fixed(n, false);
  for (VertexId v : out.fixed_vertices) fixed[v] = true;
  std::set<Edge> residual(out.residual_edges.begin(), out.residual_edges.end());
  for (const Edge& e : shard_span(parts, 2)) {
    EXPECT_TRUE(fixed[e.u] || fixed[e.v] || residual.count(e) > 0)
        << e.u << "-" << e.v;
  }
}

TEST(VcCoresetStructure, NumLevelsMonotoneInN) {
  for (std::size_t k : {2u, 8u, 32u}) {
    int prev = 0;
    for (VertexId n : {1u << 10, 1u << 14, 1u << 18, 1u << 22}) {
      const int levels = PeelingVcCoreset::num_levels(n, k);
      EXPECT_GE(levels, prev);
      prev = levels;
    }
  }
}

TEST(VcCoresetStructure, NumLevelsDecreasesInK) {
  const VertexId n = 1 << 20;
  int prev = PeelingVcCoreset::num_levels(n, 1);
  for (std::size_t k : {4u, 16u, 64u, 256u}) {
    const int levels = PeelingVcCoreset::num_levels(n, k);
    EXPECT_LE(levels, prev);
    prev = levels;
  }
}

TEST(VcCoresetStructure, DormantRegimeShipsWholePiece) {
  // When n/k <= 8 log2 n, Delta = 1 and the coreset must be the identity
  // (the regime note of EXPERIMENTS.md, deviation 3).
  Rng rng(4);
  const VertexId n = 2048;
  const std::size_t k = 64;  // n/k = 32 < 8*11 = 88
  ASSERT_EQ(PeelingVcCoreset::num_levels(n, k), 1);
  const EdgeList el = gnp(n, 8.0 / n, rng);
  const auto parts = shard_random(el, k, rng);
  const PeelingVcCoreset coreset;
  PartitionContext ctx{n, k, 0, 0};
  const VcCoresetOutput out = coreset.build(shard_span(parts, 0), ctx, rng);
  EXPECT_TRUE(out.fixed_vertices.empty());
  EXPECT_EQ(out.residual_edges.num_edges(), shard_span(parts, 0).num_edges());
}

TEST(HubGadgetStructure, MaximumMatchingEqualsPairs) {
  // The EXP2 gadget's optimum: exactly the planted pairs.
  const HubGadget g = hub_gadget(256, 32);
  const Matching m = hopcroft_karp(bipartite_graph(g.edges, g.left_size));
  EXPECT_EQ(m.size(), 256u);
}

TEST(HubGadgetStructure, HubsCannotExtendTheMatching) {
  // All left vertices matched in any maximum matching; hubs are surplus.
  const HubGadget g = hub_gadget(64, 64);
  const Matching m = hopcroft_karp(bipartite_graph(g.edges, g.left_size));
  EXPECT_EQ(m.size(), 64u);
  for (VertexId a = 0; a < 64; ++a) EXPECT_TRUE(m.is_matched(a));
}

}  // namespace
}  // namespace rcc
