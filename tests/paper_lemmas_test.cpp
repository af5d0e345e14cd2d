// Direct empirical checks of the paper's analysis steps: Claim 3.3,
// Lemma 3.2/3.1 (GreedyMatch growth), and the Lemma 3.6 sandwich.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "coreset/compose.hpp"
#include "coreset/vc_coreset.hpp"
#include "evidence/vertex_cover/peeling.hpp"
#include "graph/generators.hpp"
#include "matching/max_matching.hpp"
#include "partition/sharded_partition.hpp"
#include "util/rng.hpp"
#include "vertex_cover/konig.hpp"

namespace rcc {
namespace {

// Claim 3.3: |M*_{<i}|, the part of a fixed maximum matching assigned to the
// first i-1 machines, concentrates at ((i-1)/k) MM(G).
TEST(Claim33, PrefixConcentration) {
  Rng rng(1);
  const VertexId side = 30000;
  const EdgeList m_star = random_perfect_matching(side, rng);
  const std::size_t k = 30;
  const auto parts = shard_random(m_star, k, rng);
  std::size_t prefix = 0;
  for (std::size_t i = 1; i <= k; ++i) {
    prefix += parts.shard_size(i - 1);
    const double expected = static_cast<double>(i) / k * side;
    const double sigma = std::sqrt(expected * (1.0 - static_cast<double>(i) / k) + 1);
    EXPECT_NEAR(static_cast<double>(prefix), expected, 6 * sigma + 6);
  }
}

// Lemma 3.1: GreedyMatch finds >= MM(G)/9 - o(MM) on random partitions.
class Lemma31Sweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Lemma31Sweep, GreedyMatchReachesConstantFraction) {
  const auto [seed, k] = GetParam();
  Rng rng(seed);
  const VertexId n = 3000;
  const EdgeList el = gnp(n, 5.0 / n, rng);
  const std::size_t opt = maximum_matching_size(el);
  const auto parts = shard_random(el, k, rng);
  PartitionContext ctx{n, static_cast<std::size_t>(k), 0, 0};
  const GreedyMatchTrace trace = greedy_match(parts, ctx, rng);
  EXPECT_GE(static_cast<double>(trace.matching.size()),
            static_cast<double>(opt) / 9.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Lemma31Sweep,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(3, 9, 27)));

// Lemma 3.2 (shape): while the running matching is below MM/9, every one of
// the first k/3 steps adds a decent fraction of MM/k new edges.
TEST(Lemma32, EarlyStepsGrowLinearly) {
  Rng rng(4);
  const VertexId n = 6000;
  const std::size_t k = 12;
  const EdgeList el = gnp(n, 5.0 / n, rng);
  const std::size_t opt = maximum_matching_size(el);
  const auto parts = shard_random(el, k, rng);
  PartitionContext ctx{n, k, 0, 0};
  const GreedyMatchTrace trace = greedy_match(parts, ctx, rng);
  const double mm_over_k = static_cast<double>(opt) / k;
  std::size_t prev = 0;
  for (std::size_t i = 0; i < k / 3; ++i) {
    const std::size_t size = trace.step_sizes[i];
    if (static_cast<double>(prev) < static_cast<double>(opt) / 9.0) {
      EXPECT_GE(static_cast<double>(size - prev), 0.15 * mm_over_k)
          << "step " << i;
    }
    prev = size;
  }
}

// Lemma 3.6 (sandwich, tolerant form): per machine, the peeled set's
// intersection with O* contains the hypothetical O-levels, and its
// intersection with the complement is contained in the hypothetical
// Obar-levels — up to a small fraction of stragglers (the lemma itself only
// holds w.h.p.).
TEST(Lemma36, SandwichHoldsUpToSmallSlack) {
  Rng rng(5);
  // A lopsided bipartite instance with a small, high-degree optimal cover:
  // 200 left hubs versus 20000 right vertices.
  const VertexId left = 200;
  const VertexId right = 20000;
  const VertexId n = left + right;
  const EdgeList el = random_bipartite(left, right, 0.5, rng);
  const Graph g = bipartite_graph(el, left);
  const VertexCover opt = konig_min_vertex_cover(g);
  const HypotheticalPeeling hp = hypothetical_peeling(el, opt.indicator());
  const std::vector<VertexId> all_o = hp.all_o();
  const std::vector<VertexId> all_obar = hp.all_obar();
  std::set<VertexId> o_union(all_o.begin(), all_o.end());
  std::set<VertexId> obar_union(all_obar.begin(), all_obar.end());

  const std::size_t k = 4;
  const auto parts = shard_random(el, k, rng);
  const PeelingVcCoreset coreset;
  for (std::size_t i = 0; i < k; ++i) {
    PartitionContext ctx{n, k, i, 0};
    const VcCoresetOutput out = coreset.build(shard_span(parts, i), ctx, rng);
    std::size_t a_total = 0, b_violations = 0, b_total = 0;
    std::set<VertexId> peeled(out.fixed_vertices.begin(),
                              out.fixed_vertices.end());
    for (VertexId v : out.fixed_vertices) {
      if (opt.contains(v)) {
        ++a_total;
      } else {
        ++b_total;
        if (!obar_union.count(v)) ++b_violations;
      }
    }
    std::size_t o_missing = 0;
    for (VertexId v : o_union) {
      if (!peeled.count(v)) ++o_missing;
    }
    // Containment direction 1: the machine peels (almost) all of the
    // hypothetical O-union.
    EXPECT_LE(o_missing, o_union.size() / 10 + 2) << "machine " << i;
    // Containment direction 2: complement-side peels stay inside Obar.
    EXPECT_LE(b_violations, b_total / 10 + 2) << "machine " << i;
    (void)a_total;
  }
}

// Theorem 2 consequence measured directly: the union of all fixed sets is
// O(log n) * VC(G).
TEST(Theorem2, UnionOfFixedSetsIsSmall) {
  Rng rng(6);
  const VertexId left = 150;
  const VertexId right = 15000;
  const VertexId n = left + right;
  const EdgeList el = random_bipartite(left, right, 0.4, rng);
  const std::size_t opt = konig_vc_size(bipartite_graph(el, left));
  const std::size_t k = 6;
  const auto parts = shard_random(el, k, rng);
  const PeelingVcCoreset coreset;
  std::set<VertexId> fixed_union;
  for (std::size_t i = 0; i < k; ++i) {
    PartitionContext ctx{n, k, i, 0};
    const VcCoresetOutput out = coreset.build(shard_span(parts, i), ctx, rng);
    fixed_union.insert(out.fixed_vertices.begin(), out.fixed_vertices.end());
  }
  const double log_n = std::log2(static_cast<double>(n));
  EXPECT_LE(static_cast<double>(fixed_union.size()),
            4.0 * log_n * static_cast<double>(opt));
}

}  // namespace
}  // namespace rcc
