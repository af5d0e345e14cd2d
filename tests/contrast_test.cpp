// Tests for the contrast systems: composable connectivity coresets (which
// need no randomness) and greedy spanners.
#include "evidence/contrast/connectivity_coreset.hpp"

#include <gtest/gtest.h>

#include "distributed/protocol_engine.hpp"
#include "evidence/graph/properties.hpp"
#include "evidence/partition/adversarial.hpp"
#include "evidence/util/dsu.hpp"
#include "graph/generators.hpp"
#include "partition/partition.hpp"
#include "partition/sharded_partition.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

TEST(Dsu, BasicOperations) {
  Dsu dsu(5);
  EXPECT_EQ(dsu.num_components(), 5u);
  EXPECT_TRUE(dsu.unite(0, 1));
  EXPECT_FALSE(dsu.unite(1, 0));
  EXPECT_TRUE(dsu.same(0, 1));
  EXPECT_FALSE(dsu.same(0, 2));
  EXPECT_EQ(dsu.component_size(1), 2u);
  EXPECT_EQ(dsu.num_components(), 4u);
}

TEST(SpanningForest, IsAForestWithSameComponents) {
  Rng rng(1);
  const EdgeList el = gnp(300, 0.02, rng);
  const EdgeList forest = spanning_forest(el);
  // Forest: no cycle — every edge must unite two different components.
  Dsu check(300);
  for (const Edge& e : forest) EXPECT_TRUE(check.unite(e.u, e.v));
  EXPECT_EQ(connected_components(Graph(forest)), connected_components(Graph(el)));
  EXPECT_LE(forest.num_edges(), 299u);
}

// The intro's claim: connectivity has a composable coreset that works for
// ANY partition, adversarial included.
class ConnectivityComposition : public ::testing::TestWithParam<int> {};

TEST_P(ConnectivityComposition, ExactUnderAllPartitioners) {
  Rng rng(GetParam());
  const VertexId n = 400;
  const EdgeList el = gnp(n, 1.5 / n, rng);  // below the giant-component knee
  const std::size_t true_components = connected_components(Graph(el));
  const SpanningForestCoreset coreset;

  auto compose_on = [&](const std::vector<std::span<const Edge>>& pieces) {
    std::vector<EdgeList> summaries;
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      PartitionContext ctx{n, pieces.size(), i, 0};
      const EdgeSpan piece(pieces[i].data(), pieces[i].size(), n);
      summaries.push_back(coreset.build(piece, ctx, rng));
    }
    const EdgeList merged = spanning_forest(EdgeList::union_of(summaries));
    return connected_components(Graph(merged));
  };

  const ShardedPartition<Edge> random_parts = shard_random(el, 7, rng);
  EXPECT_EQ(compose_on(pieces_of(random_parts)), true_components);
  const std::vector<EdgeList> sorted_parts = sorted_chunk_partition(el, 7);
  EXPECT_EQ(compose_on(pieces_of(sorted_parts)), true_components);
  const std::vector<EdgeList> vertex_parts = by_vertex_partition(el, 7);
  EXPECT_EQ(compose_on(pieces_of(vertex_parts)), true_components);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConnectivityComposition, ::testing::Range(1, 11));

TEST(GreedySpanner, KeepsGraphConnectedAndSparse) {
  Rng rng(2);
  const VertexId n = 300;
  const EdgeList el = gnp(n, 0.1, rng);
  const EdgeList spanner = greedy_spanner(el, 2);  // stretch 3
  EXPECT_LT(spanner.num_edges(), el.num_edges());
  EXPECT_EQ(connected_components(Graph(spanner)), connected_components(Graph(el)));
}

TEST(GreedySpanner, StretchBoundOnSampledPairs) {
  Rng rng(3);
  const VertexId n = 150;
  const EdgeList el = gnp(n, 0.15, rng);
  const int t = 2;
  const EdgeList spanner = greedy_spanner(el, t);
  // Stretch check on the original edges: d_spanner(u, v) <= 2t-1 for every
  // original edge (the defining property of the greedy construction).
  int checked = 0;
  for (const Edge& e : el) {
    if (++checked > 50) break;  // sample
    const std::uint64_t d = bfs_distance(spanner, e.u, e.v);
    EXPECT_LE(d, static_cast<std::uint64_t>(2 * t - 1));
  }
}

TEST(GreedySpanner, StretchOneKeepsEverything) {
  Rng rng(4);
  const EdgeList el = gnp(80, 0.1, rng);
  EdgeList dedup = el;
  dedup.dedup();
  const EdgeList spanner = greedy_spanner(dedup, 1);
  EXPECT_EQ(spanner.num_edges(), dedup.num_edges());
}

TEST(GreedySpanner, TriangleDropsOneEdgeAtStretch2) {
  EdgeList tri(3);
  tri.add(0, 1);
  tri.add(1, 2);
  tri.add(0, 2);
  const EdgeList spanner = greedy_spanner(tri, 2);
  EXPECT_EQ(spanner.num_edges(), 2u);
}

}  // namespace
}  // namespace rcc
