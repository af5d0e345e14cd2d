#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "evidence/graph/properties.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

EdgeList triangle_plus_pendant() {
  EdgeList el(4);
  el.add(0, 1);
  el.add(1, 2);
  el.add(0, 2);
  el.add(2, 3);
  return el;
}

TEST(Graph, DegreesAndNeighbors) {
  const Graph g(triangle_plus_pendant());
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(2), 3u);
  EXPECT_EQ(g.degree(3), 1u);
  auto nb = g.neighbors(2);
  std::vector<VertexId> sorted(nb.begin(), nb.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<VertexId>{0, 1, 3}));
}

TEST(Graph, MaxDegree) {
  const Graph g(triangle_plus_pendant());
  EXPECT_EQ(g.max_degree(), 3u);
}

TEST(Graph, EmptyGraph) {
  const Graph g(EdgeList(5));
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
  EXPECT_TRUE(g.neighbors(0).empty());
}

TEST(Graph, ParallelEdgesPreserved) {
  EdgeList el(2);
  el.add(0, 1);
  el.add(0, 1);
  const Graph g(el);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(0), 2u);
}

TEST(Graph, ToEdgeListRoundTrip) {
  EdgeList original = triangle_plus_pendant();
  const Graph g(original);
  EdgeList round = g.to_edge_list();
  original.sort();
  round.sort();
  ASSERT_EQ(round.num_edges(), original.num_edges());
  for (std::size_t i = 0; i < round.num_edges(); ++i) {
    EXPECT_EQ(round[i], original[i]);
  }
}

TEST(Graph, BipartitionTagAndConsistency) {
  Rng rng(1);
  const EdgeList el = random_bipartite(50, 60, 0.1, rng);
  const Graph g = bipartite_graph(el, 50);
  ASSERT_TRUE(g.is_bipartite_tagged());
  EXPECT_EQ(g.bipartition()->left_size, 50u);
  EXPECT_TRUE(g.bipartition_consistent());
}

TEST(Graph, InconsistentBipartitionDetected) {
  EdgeList el(4);
  el.add(0, 1);  // both on "left" if left_size = 2
  const Graph g(el, Bipartition{2});
  EXPECT_FALSE(g.bipartition_consistent());
}

TEST(Graph, UntaggedHasNoBipartition) {
  const Graph g(triangle_plus_pendant());
  EXPECT_FALSE(g.is_bipartite_tagged());
  EXPECT_FALSE(g.bipartition_consistent());
}

TEST(Properties, ConnectedComponents) {
  EdgeList el(7);
  el.add(0, 1);
  el.add(1, 2);
  el.add(3, 4);
  // 5, 6 isolated.
  const Graph g(el);
  EXPECT_EQ(connected_components(g), 4u);
}

TEST(Properties, DegreeHistogram) {
  const Graph g(triangle_plus_pendant());
  const auto hist = degree_histogram(g);
  ASSERT_EQ(hist.size(), 4u);  // max degree 3
  EXPECT_EQ(hist[1], 1u);      // vertex 3
  EXPECT_EQ(hist[2], 2u);      // vertices 0, 1
  EXPECT_EQ(hist[3], 1u);      // vertex 2
}

TEST(Properties, IsBipartiteDetectsOddCycle) {
  EXPECT_FALSE(is_bipartite(Graph(cycle(5))));
  EXPECT_TRUE(is_bipartite(Graph(cycle(6))));
  EXPECT_TRUE(is_bipartite(Graph(path(10))));
  EXPECT_FALSE(is_bipartite(Graph(triangle_plus_pendant())));
}

TEST(Properties, RandomBipartiteIsBipartite) {
  Rng rng(2);
  const EdgeList el = random_bipartite(40, 40, 0.2, rng);
  EXPECT_TRUE(is_bipartite(Graph(el)));
}

}  // namespace
}  // namespace rcc
