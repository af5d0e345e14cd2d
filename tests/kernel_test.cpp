// Tests for the degree-capped kernel (footnote 3's "small opt" coreset).
#include "evidence/coreset/kernel.hpp"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "coreset/compose.hpp"
#include "evidence/util/epoch_map.hpp"
#include "graph/generators.hpp"
#include "matching/max_matching.hpp"
#include "partition/sharded_partition.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

TEST(VertexCapKernel, RespectsCap) {
  Rng rng(1);
  const EdgeList el = gnp(200, 0.2, rng);
  for (VertexId cap : {1u, 3u, 7u}) {
    const EdgeList kernel = vertex_cap_kernel(el, cap);
    const auto deg = kernel.degrees();
    for (VertexId v = 0; v < 200; ++v) EXPECT_LE(deg[v], cap);
  }
}

TEST(VertexCapKernel, SubsetOfInput) {
  Rng rng(2);
  const EdgeList el = gnp(100, 0.1, rng);
  const EdgeList kernel = vertex_cap_kernel(el, 2);
  std::set<std::pair<VertexId, VertexId>> present;
  for (const Edge& e : el) present.insert({e.u, e.v});
  for (const Edge& e : kernel) EXPECT_TRUE(present.count({e.u, e.v}));
}

TEST(VertexCapKernel, LargeCapIsIdentity) {
  Rng rng(3);
  const EdgeList el = gnp(50, 0.3, rng);
  const EdgeList kernel = vertex_cap_kernel(el, 50);
  EXPECT_EQ(kernel.num_edges(), el.num_edges());
}

// The kernel lemma: cap >= MM(G) implies MM(kernel) == MM(G).
class KernelPreservation : public ::testing::TestWithParam<int> {};

TEST_P(KernelPreservation, MatchingPreservedWhenCapAtLeastMM) {
  Rng rng(GetParam());
  const EdgeList el = gnp(60, 0.08, rng);
  const std::size_t mm = maximum_matching_size(el);
  const EdgeList kernel =
      vertex_cap_kernel(el, static_cast<VertexId>(std::max<std::size_t>(mm, 1)));
  EXPECT_EQ(maximum_matching_size(kernel), mm);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelPreservation, ::testing::Range(1, 25));

TEST(VertexCapKernel, SmallCapStillHalfOfCap) {
  // Even with cap < MM, the kernel keeps a matching of size >= cap/2-ish
  // (a maximal matching among kept edges). Weak sanity bound: >= cap/2 when
  // the graph has a perfect matching and cap is small.
  Rng rng(99);
  const EdgeList el = random_perfect_matching(100, rng);
  const EdgeList kernel = vertex_cap_kernel(el, 1);
  // Perfect matching input: every edge survives the cap (degrees are 1).
  EXPECT_EQ(kernel.num_edges(), 100u);
}

TEST(KernelMatchingCoreset, ExactCompositionOnSmallOptInstances) {
  // Small-opt instance: a few disjoint bicliques (MM = 2 per biclique) plus
  // isolated vertices; MM(G) = 10 << n. With cap >= MM the composed
  // coresets preserve the optimum exactly — footnote 3's promise.
  Rng rng(4);
  const VertexId blocks = 5;
  EdgeList el(2000);
  for (VertexId b = 0; b < blocks; ++b) {
    const VertexId base = b * 40;
    for (VertexId i = 0; i < 4; ++i) {
      for (VertexId j = 0; j < 4; ++j) {
        el.add(base + i, base + 20 + j);
      }
    }
  }
  const std::size_t mm = maximum_matching_size(el);
  EXPECT_EQ(mm, 4u * blocks);

  const std::size_t k = 5;
  const auto parts = shard_random(el, k, rng);
  const KernelMatchingCoreset coreset(static_cast<VertexId>(mm));
  std::vector<EdgeList> summaries;
  for (std::size_t i = 0; i < k; ++i) {
    PartitionContext ctx{2000, k, i, 0};
    summaries.push_back(coreset.build(shard_span(parts, i), ctx, rng));
  }
  // Kernels of pieces = pieces here (piece degrees <= 4 <= cap): exactness.
  const Matching composed =
      compose_matching_coresets(summaries, ComposeSolver::kMaximum, 0, rng);
  EXPECT_EQ(composed.size(), mm);
}

TEST(KernelMatchingCoreset, NameEncodesCap) {
  const KernelMatchingCoreset c(17);
  EXPECT_NE(c.name().find("cap=17"), std::string::npos);
}

TEST(KernelMatchingCoresetDeathTest, ZeroCapRejected) {
  EXPECT_DEATH(KernelMatchingCoreset(0), "RCC_CHECK");
}

TEST(EpochMap, ValuesReadFreshPerEpoch) {
  EpochMap<VertexId> counts;
  counts.reset(4);
  EXPECT_EQ(counts.get(2), 0u);
  counts.ref(2) = 7;
  EXPECT_EQ(counts.get(2), 7u);
  counts.reset(4);
  EXPECT_EQ(counts.get(2), 0u);  // stale value invisible after the bump
  counts.ref(2) += 3;
  EXPECT_EQ(counts.get(2), 3u);
}

}  // namespace
}  // namespace rcc
