// Differential / fuzz-style property tests: independent implementations and
// mathematical identities cross-checked over randomized instance sweeps.
#include <gtest/gtest.h>

#include <cmath>

#include "coreset/compose.hpp"
#include "coreset/matching_coresets.hpp"
#include "evidence/graph/properties.hpp"
#include "evidence/vertex_cover/peeling.hpp"
#include "graph/generators.hpp"
#include "matching/blossom.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/max_matching.hpp"
#include "partition/sharded_partition.hpp"
#include "util/rng.hpp"
#include "vertex_cover/approx.hpp"
#include "vertex_cover/exact.hpp"
#include "vertex_cover/konig.hpp"

namespace rcc {
namespace {

struct FuzzParam {
  int seed;
  double density;  // expected average degree
};

class FuzzSweep : public ::testing::TestWithParam<std::tuple<int, double>> {};

// Koenig duality: on bipartite graphs, min VC = max matching, and every
// derived cover is feasible. Cross-checks HK, Koenig, and the 2-approx.
TEST_P(FuzzSweep, KonigDualityAndApproximationSandwich) {
  const auto [seed, avg_deg] = GetParam();
  Rng rng(seed);
  const VertexId side = 150;
  const EdgeList el = random_bipartite(side, side, avg_deg / side, rng);
  const Graph g = bipartite_graph(el, side);
  const std::size_t mm = hopcroft_karp(g).size();
  const VertexCover exact_cover = konig_min_vertex_cover(g);
  EXPECT_EQ(exact_cover.size(), mm);
  EXPECT_TRUE(exact_cover.covers(el));

  const VertexCover approx = vc_two_approximation(el, rng);
  EXPECT_TRUE(approx.covers(el));
  EXPECT_GE(approx.size(), exact_cover.size());
  EXPECT_LE(approx.size(), 2 * exact_cover.size());

  // Blossom agrees with HK on bipartite inputs.
  EXPECT_EQ(blossom_maximum_matching(Graph(el)).size(), mm);
}

// Gallai identity on general graphs: MM(G) + |max independent set| = n is
// hard to check, but VC(G) >= MM(G) and VC(G) <= 2 MM(G) always hold.
TEST_P(FuzzSweep, MatchingCoverSandwichOnGeneralGraphs) {
  const auto [seed, avg_deg] = GetParam();
  Rng rng(seed + 1000);
  const VertexId n = 40;
  const EdgeList el = gnp(n, avg_deg / n, rng);
  const std::size_t mm = maximum_matching_size(el);
  const std::size_t vc = exact_min_vertex_cover_size(el);
  EXPECT_GE(vc, mm);
  EXPECT_LE(vc, 2 * mm);
}

// Composition quality dominance chain: exact coordinator >= greedy
// coordinator >= half of exact.
TEST_P(FuzzSweep, ComposeSolverDominance) {
  const auto [seed, avg_deg] = GetParam();
  Rng rng(seed + 2000);
  const VertexId n = 600;
  const EdgeList el = gnp(n, avg_deg / n, rng);
  const std::size_t k = 4;
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
  EXPECT_LE(greedy, exact);
  EXPECT_GE(2 * greedy, exact);
  // And the union can never beat the true optimum.
  EXPECT_LE(exact, maximum_matching_size(el));
}

// Peeling feasibility and the degree invariant across densities.
TEST_P(FuzzSweep, PeelingInvariants) {
  const auto [seed, avg_deg] = GetParam();
  Rng rng(seed + 3000);
  const VertexId n = 800;
  const EdgeList el = gnp(n, avg_deg / n, rng);
  const VertexCover cover = parnas_ron_vertex_cover(el, rng);
  EXPECT_TRUE(cover.covers(el));
  const PeelingResult r = parnas_ron_peeling(el);
  // No peeled vertex appears in the residual's support.
  std::vector<bool> peeled(n, false);
  for (VertexId v : r.all_peeled()) peeled[v] = true;
  for (const Edge& e : r.residual) {
    EXPECT_FALSE(peeled[e.u]);
    EXPECT_FALSE(peeled[e.v]);
  }
}

// Partition invariants: every edge lands exactly once; union preserves
// multiset (checked via degree sums).
TEST_P(FuzzSweep, PartitionPreservesDegreeMultiset) {
  const auto [seed, avg_deg] = GetParam();
  Rng rng(seed + 4000);
  const VertexId n = 500;
  const EdgeList el = gnp(n, avg_deg / n, rng);
  const auto parts = shard_random(el, 7, rng);
  const auto before = el.degrees();
  std::vector<VertexId> after(n, 0);
  for (std::size_t i = 0; i < parts.num_machines(); ++i) {
    const auto d = shard_span(parts, i).degrees();
    for (VertexId v = 0; v < n; ++v) after[v] += d[v];
  }
  EXPECT_EQ(after, before);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FuzzSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(1.0, 3.0, 8.0)));

// Identity spot-check: subsampled coreset at alpha=1 equals the full one.
TEST(Differential, SubsampleAlphaOneIsIdentity) {
  Rng rng(7);
  const EdgeList el = gnp(400, 0.02, rng);
  const auto parts = shard_random(el, 3, rng);
  const MaximumMatchingCoreset full;
  const SubsampledMatchingCoreset sub(1.0);
  PartitionContext ctx{400, 3, 0, 0};
  Rng ra(5), rb(5);
  EXPECT_EQ(full.build(shard_span(parts, 0), ctx, ra).num_edges(),
            sub.build(shard_span(parts, 0), ctx, rb).num_edges());
}

// Induced matching is invariant under edge order.
TEST(Differential, InducedMatchingOrderInvariant) {
  Rng rng(8);
  EdgeList el = gnp(300, 0.01, rng);
  const std::size_t size_given = induced_matching(el).num_edges();
  el.sort();
  EXPECT_EQ(induced_matching(el).num_edges(), size_given);
}

}  // namespace
}  // namespace rcc
