// The union kernel's two helpers on their own: the Tutte-Berge bound with
// S = {} and the Karp-Sipser seed, then the bound as a stop inside the exact
// solvers. A stop that fired below the maximum would silently shrink the
// matching, so every solve here is checked against the exhaustive blossom
// (no Hungarian-tree pruning, no seed, no bound).
#include "matching/warm_start.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "coreset/compose.hpp"
#include "graph/generators.hpp"
#include "matching/blossom.hpp"
#include "matching/hopcroft_karp.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

std::size_t exhaustive_size(const Graph& g) {
  return blossom_maximum_matching(g, nullptr, /*prune_hungarian_trees=*/false)
      .size();
}

/// K_{1,3} forest as a bipartite graph: centers [0, count), leaves after.
EdgeList claw_forest(VertexId count) {
  EdgeList el(4 * count);
  for (VertexId c = 0; c < count; ++c) {
    for (VertexId leaf = 0; leaf < 3; ++leaf) el.add(c, count + 3 * c + leaf);
  }
  return el;
}

/// A 5-cycle (0..4) with the pendant path 0 - 5 - 6 and a second leaf 7 on
/// 5. Connected on 8 vertices, so the S = {} bound is 4; S = {5} leaves the
/// odd cycle and two isolated leaves, so the maximum is 3.
EdgeList blossom_with_pendant_path() {
  EdgeList el(8);
  for (VertexId v = 0; v < 5; ++v) el.add(v, (v + 1) % 5);
  el.add(0, 5);
  el.add(5, 6);
  el.add(5, 7);
  return el;
}

/// A triangle whose vertex 0 also carries three leaves: S = {0} shows the
/// maximum is 2, against an S = {} bound of 3.
EdgeList blossom_with_leaves() {
  EdgeList el(6);
  el.add(0, 1);
  el.add(1, 2);
  el.add(2, 0);
  for (VertexId leaf = 3; leaf < 6; ++leaf) el.add(0, leaf);
  return el;
}

TEST(TutteBergeBound, IsolatedVerticesAreOddComponents) {
  EXPECT_EQ(tutte_berge_bound(Graph(EdgeList(5))), 0u);
  EXPECT_EQ(tutte_berge_bound(Graph(EdgeList(0))), 0u);
  // Path 0-1-2 plus isolated 3 and 4: three odd components, (5 - 3) / 2.
  EdgeList el(5);
  el.add(0, 1);
  el.add(1, 2);
  EXPECT_EQ(tutte_berge_bound(Graph(el)), 1u);
  // One more isolated vertex makes the universe even but adds an odd
  // component: (6 - 4) / 2.
  EdgeList wider(6);
  wider.add(0, 1);
  wider.add(1, 2);
  EXPECT_EQ(tutte_berge_bound(Graph(wider)), 1u);
  EXPECT_EQ(tutte_berge_bound(Graph(path(6))), 3u);
  EXPECT_EQ(tutte_berge_bound(Graph(cycle(7))), 3u);
}

TEST(TutteBergeBound, ParallelEdgesAndSelfLoopsDoNotChangeIt) {
  Rng rng(4);
  const EdgeList base = gnm(300, 280, rng);
  const std::size_t expected = tutte_berge_bound(Graph(base));
  std::vector<Edge> noisy(base.begin(), base.end());
  for (std::size_t i = 0; i < base.num_edges(); i += 3) noisy.push_back(base[i]);
  for (VertexId v = 0; v < 300; v += 7) noisy.push_back(Edge{v, v});
  const Graph g(EdgeSpan(noisy.data(), noisy.size(), 300));
  EXPECT_EQ(tutte_berge_bound(g), expected);
  // A self-loop on an otherwise isolated vertex leaves it an odd component.
  const std::vector<Edge> loop_only{Edge{0, 0}};
  EXPECT_EQ(tutte_berge_bound(Graph(EdgeSpan(loop_only.data(), 1, 1))), 0u);
}

TEST(TutteBergeBound, NeverBelowTheMaximum) {
  for (int seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const EdgeList el = gnm(200, 60 + 20 * seed, rng);
    const Graph g(el);
    EXPECT_GE(tutte_berge_bound(g), exhaustive_size(g)) << "seed " << seed;
  }
}

TEST(KarpSipser, IsAValidMaximalMatchingOfTheGraph) {
  for (int seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const EdgeList el = gnm(400, 300 + 40 * seed, rng);
    Matching m;
    karp_sipser_into(m, Graph(el));
    EXPECT_TRUE(m.valid());
    EXPECT_TRUE(m.subset_of(el));
    EXPECT_TRUE(m.maximal_in(el)) << "seed " << seed;
    EXPECT_LE(m.size(), exhaustive_size(Graph(el)));
  }
}

TEST(KarpSipser, DegreeOneRuleAloneSolvesForests) {
  // A forest always has a leaf, so the greedy step never runs: the seed is
  // a maximum matching.
  for (const EdgeList& forest :
       {path(9), star_forest(5, 3), claw_forest(6), star(11)}) {
    Matching m;
    karp_sipser_into(m, Graph(forest));
    EXPECT_EQ(m.size(), exhaustive_size(Graph(forest)));
  }
}

TEST(KarpSipser, ScratchReuseGivesTheSameMatching) {
  Rng rng(12);
  const EdgeList a = gnm(500, 900, rng);
  const EdgeList b = gnm(300, 400, rng);
  KarpSipserScratch scratch;
  Matching fresh_a;
  Matching fresh_b;
  karp_sipser_into(fresh_a, Graph(a));
  karp_sipser_into(fresh_b, Graph(b));
  Matching reused;
  karp_sipser_into(reused, Graph(a), &scratch);
  karp_sipser_into(reused, Graph(b), &scratch);
  for (VertexId v = 0; v < 300; ++v) EXPECT_EQ(reused.mate(v), fresh_b.mate(v));
  karp_sipser_into(reused, Graph(a), &scratch);
  for (VertexId v = 0; v < 500; ++v) EXPECT_EQ(reused.mate(v), fresh_a.mate(v));
}

TEST(TutteBergeStop, DoesNotFireEarlyWhereTheBoundIsNotTight) {
  struct Case {
    const char* name;
    EdgeList edges;
    VertexId left_size;
  };
  const std::vector<Case> cases{
      {"claw forest", claw_forest(7), 7},
      {"claw forest (general)", claw_forest(7), 0},
      {"star forest", star_forest(6, 3), 0},
      {"blossom with pendant path", blossom_with_pendant_path(), 0},
      {"blossom with leaves", blossom_with_leaves(), 0},
  };
  for (const Case& c : cases) {
    const Graph plain(c.edges);
    const std::size_t exact = exhaustive_size(plain);
    const std::size_t bound = tutte_berge_bound(plain);
    EXPECT_GT(bound, exact) << c.name << ": the case must be non-tight";

    Matching kernel;
    union_maximum_matching_into(kernel, std::vector<EdgeList>{c.edges},
                                c.left_size);
    EXPECT_EQ(kernel.size(), exact) << c.name;
    EXPECT_TRUE(kernel.valid());
    EXPECT_TRUE(kernel.subset_of(c.edges));

    Matching seed;
    karp_sipser_into(seed, plain);
    EXPECT_EQ(blossom_maximum_matching(plain, nullptr, true, &seed, bound)
                  .size(),
              exact)
        << c.name;
    if (c.left_size > 0) {
      const Graph tagged = bipartite_graph(c.edges, c.left_size);
      EXPECT_EQ(hopcroft_karp(tagged, nullptr, &seed, bound).size(), exact)
          << c.name;
    }
  }
}

TEST(TutteBergeStop, StopsAtTheMaximumWhereTheBoundIsTight) {
  // Odd cycles and even paths meet the bound, so the stop fires; random
  // sparse graphs mostly do. Every result must still be maximum.
  Rng rng(21);
  const std::vector<EdgeList> tight{cycle(9), path(10)};
  std::vector<EdgeList> graphs = tight;
  for (int i = 0; i < 20; ++i) graphs.push_back(gnm(600, 900, rng));
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const EdgeList& el = graphs[i];
    const Graph g(el);
    const std::size_t exact = exhaustive_size(g);
    if (i < tight.size()) EXPECT_EQ(tutte_berge_bound(g), exact);
    Matching kernel;
    union_maximum_matching_into(kernel, std::vector<EdgeList>{el}, 0);
    EXPECT_EQ(kernel.size(), exact) << "graph " << i;
    EXPECT_TRUE(kernel.subset_of(el));
    EXPECT_EQ(blossom_maximum_matching(g, nullptr, true, nullptr, exact).size(),
              exact);
  }
}

}  // namespace
}  // namespace rcc
