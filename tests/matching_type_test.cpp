#include "matching/matching.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/warm_start.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

TEST(Matching, StartsEmpty) {
  Matching m(5);
  EXPECT_EQ(m.size(), 0u);
  for (VertexId v = 0; v < 5; ++v) EXPECT_FALSE(m.is_matched(v));
  EXPECT_TRUE(m.valid());
}

TEST(Matching, MatchAndMates) {
  Matching m(4);
  m.match(0, 2);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.is_matched(0));
  EXPECT_TRUE(m.is_matched(2));
  EXPECT_EQ(m.mate(0), 2u);
  EXPECT_EQ(m.mate(2), 0u);
  EXPECT_EQ(m.mate(1), kInvalidVertex);
  EXPECT_TRUE(m.valid());
}

TEST(MatchingDeathTest, DoubleMatchAborts) {
  Matching m(4);
  m.match(0, 1);
  EXPECT_DEATH(m.match(1, 2), "RCC_CHECK");
}

TEST(Matching, Unmatch) {
  Matching m(4);
  m.match(0, 1);
  m.unmatch(1);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.is_matched(0));
  m.unmatch(2);  // no-op on unmatched vertex
  EXPECT_EQ(m.size(), 0u);
}

TEST(Matching, ToEdgeListNormalized) {
  Matching m(6);
  m.match(5, 2);
  m.match(0, 3);
  EdgeList el = m.to_edge_list();
  el.sort();
  EXPECT_EQ(el.num_edges(), 2u);
  EXPECT_EQ(el[0], make_edge(0, 3));
  EXPECT_EQ(el[1], make_edge(2, 5));
}

TEST(Matching, FromEdgesRoundTrip) {
  EdgeList el(6);
  el.add(0, 1);
  el.add(2, 3);
  const Matching m = Matching::from_edges(el);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.mate(0), 1u);
  EXPECT_EQ(m.mate(3), 2u);
}

TEST(MatchingDeathTest, FromEdgesRejectsNonMatching) {
  EdgeList el(4);
  el.add(0, 1);
  el.add(1, 2);
  EXPECT_DEATH(Matching::from_edges(el), "RCC_CHECK");
}

TEST(Matching, SubsetOf) {
  EdgeList graph(4);
  graph.add(0, 1);
  graph.add(2, 3);
  graph.add(1, 2);
  Matching m(4);
  m.match(0, 1);
  EXPECT_TRUE(m.subset_of(graph));
  Matching bogus(4);
  bogus.match(0, 3);  // not a graph edge
  EXPECT_FALSE(bogus.subset_of(graph));
}

TEST(Matching, MaximalIn) {
  EdgeList graph(4);
  graph.add(0, 1);
  graph.add(2, 3);
  Matching m(4);
  m.match(0, 1);
  EXPECT_FALSE(m.maximal_in(graph));  // (2,3) addable
  m.match(2, 3);
  EXPECT_TRUE(m.maximal_in(graph));
}

/// Frozen copy of Matching::to_edge_list before it became one branch-free
/// pass: a per-vertex scan adding every (v, mate[v]) with v < mate[v].
EdgeList frozen_to_edge_list(const Matching& m) {
  EdgeList out(m.num_vertices());
  out.reserve(m.size());
  for (VertexId v = 0; v < m.num_vertices(); ++v) {
    if (m.mate(v) != kInvalidVertex && v < m.mate(v)) out.add(v, m.mate(v));
  }
  return out;
}

void expect_same_edge_list(const Matching& m, const std::string& what) {
  const EdgeList got = m.to_edge_list();
  const EdgeList frozen = frozen_to_edge_list(m);
  EXPECT_EQ(got.num_vertices(), m.num_vertices()) << what;
  EXPECT_EQ(got.num_edges(), m.size()) << what;
  EXPECT_EQ(got.edges(), frozen.edges()) << what;
  for (const Edge& e : got) {
    EXPECT_LT(e.u, e.v) << what;
    EXPECT_EQ(m.mate(e.u), e.v) << what;
  }
}

TEST(Matching, ToEdgeListMatchesTheFrozenScan) {
  expect_same_edge_list(Matching(), "no vertices");
  expect_same_edge_list(Matching(9), "empty matching");
  {
    // Edges at both ends of the universe, written high endpoint first.
    Matching ends(9);
    ends.match(8, 0);
    expect_same_edge_list(ends, "edge (0, n-1)");
    Matching corners(9);
    corners.match(1, 0);
    corners.match(8, 7);
    corners.match(4, 6);
    expect_same_edge_list(corners, "edges at 0 and n-1");
  }
  for (int seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const VertexId n = 200 + 37 * static_cast<VertexId>(seed);
    const EdgeList g = gnm(n, 2 * std::size_t{n}, rng);
    expect_same_edge_list(
        greedy_maximal_matching(g, GreedyOrder::kRandom, rng),
        "random maximal, seed " + std::to_string(seed));
    Matching seeded;
    karp_sipser_into(seeded, Graph(g));
    expect_same_edge_list(seeded, "Karp-Sipser, seed " + std::to_string(seed));
    // Unmatching some edges leaves holes the pass must step over.
    for (VertexId v = 0; v < n; v += 5) seeded.unmatch(v);
    expect_same_edge_list(seeded, "thinned, seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace rcc
