#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "evidence/graph/properties.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

TEST(Gnp, EdgeCountNearExpectation) {
  Rng rng(1);
  const VertexId n = 500;
  const double p = 0.05;
  double total = 0;
  const int reps = 20;
  for (int r = 0; r < reps; ++r) {
    total += static_cast<double>(gnp(n, p, rng).num_edges());
  }
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(total / reps / expected, 1.0, 0.05);
}

TEST(Gnp, NoDuplicatesNoLoops) {
  Rng rng(2);
  const EdgeList el = gnp(200, 0.1, rng);
  EXPECT_FALSE(el.has_parallel_edges());
  for (const Edge& e : el) {
    EXPECT_LT(e.u, e.v);
    EXPECT_LT(e.v, 200u);
  }
}

TEST(Gnp, ProbabilityOneIsComplete) {
  Rng rng(3);
  const EdgeList el = gnp(20, 1.0, rng);
  EXPECT_EQ(el.num_edges(), 190u);
}

TEST(Gnp, ProbabilityZeroIsEmpty) {
  Rng rng(4);
  EXPECT_TRUE(gnp(100, 0.0, rng).empty());
}

TEST(Gnp, EdgeDistributionIsUniformish) {
  // Every pair should appear with roughly the same frequency.
  Rng rng(5);
  const VertexId n = 12;
  std::map<Edge, int> counts;
  const int reps = 4000;
  for (int r = 0; r < reps; ++r) {
    for (const Edge& e : gnp(n, 0.3, rng)) ++counts[e];
  }
  for (const auto& [e, c] : counts) {
    EXPECT_NEAR(static_cast<double>(c) / reps, 0.3, 0.06) << e.u << "-" << e.v;
  }
  EXPECT_EQ(counts.size(), static_cast<std::size_t>(n) * (n - 1) / 2);
}

TEST(Gnm, ExactEdgeCountDistinct) {
  Rng rng(6);
  const EdgeList el = gnm(100, 1234, rng);
  EXPECT_EQ(el.num_edges(), 1234u);
  EXPECT_FALSE(el.has_parallel_edges());
}

TEST(GnmDeathTest, MoreEdgesThanPairsAborts) {
  Rng rng(8);
  EXPECT_DEATH(gnm(1, 1, rng), "RCC_CHECK failed");
  EXPECT_DEATH(gnm(0, 4000, rng), "RCC_CHECK failed");
  EXPECT_DEATH(gnm(10, 46, rng), "RCC_CHECK failed");
}

TEST(Gnm, FewerThanTwoVerticesAndNoEdgesIsEmpty) {
  Rng rng(9);
  EXPECT_TRUE(gnm(0, 0, rng).empty());
  EXPECT_EQ(gnm(1, 0, rng).num_vertices(), 1u);
  EXPECT_EQ(gnm(10, 45, rng).num_edges(), 45u);
}

/// Order-sensitive FNV-1a over each edge packed as (u << 32) | v.
std::uint64_t edge_hash(const EdgeList& el) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Edge& e : el) {
    const std::uint64_t x = (static_cast<std::uint64_t>(e.u) << 32) | e.v;
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// Golden graphs recorded with the hash-set sampler the flat table replaced:
// edge order and the generator position after the build are pinned.
TEST(Gnm, GoldenEdgesAndGeneratorPosition) {
  Rng rng(6);
  const EdgeList el = gnm(4000, 32000, rng);
  EXPECT_EQ(el.num_edges(), 32000u);
  EXPECT_EQ(edge_hash(el), 0xbf01eb97003fe1d8ULL);
  EXPECT_EQ(rng.next_u64(), 0xab347a10346855a4ULL);
}

TEST(LeftRegularBipartite, GoldenEdgesAndGeneratorPosition) {
  Rng rng(7);
  const EdgeList el = left_regular_bipartite(2000, 2000, 5, rng);
  EXPECT_EQ(el.num_edges(), 10000u);
  EXPECT_EQ(edge_hash(el), 0xcdc245b0e4a2ba26ULL);
  EXPECT_EQ(rng.next_u64(), 0xc6b26112eac147fcULL);
}

TEST(RandomBipartite, SidesRespected) {
  Rng rng(7);
  const EdgeList el = random_bipartite(30, 70, 0.2, rng);
  for (const Edge& e : el) {
    EXPECT_LT(e.u, 30u);
    EXPECT_GE(e.v, 30u);
    EXPECT_LT(e.v, 100u);
  }
}

TEST(RandomBipartite, EdgeCountNearExpectation) {
  Rng rng(8);
  double total = 0;
  const int reps = 20;
  for (int r = 0; r < reps; ++r) {
    total += static_cast<double>(random_bipartite(100, 200, 0.1, rng).num_edges());
  }
  EXPECT_NEAR(total / reps / (0.1 * 100 * 200), 1.0, 0.05);
}

TEST(LeftRegularBipartite, ExactLeftDegrees) {
  Rng rng(9);
  const EdgeList el = left_regular_bipartite(50, 80, 5, rng);
  EXPECT_EQ(el.num_edges(), 250u);
  const auto deg = el.degrees();
  for (VertexId u = 0; u < 50; ++u) EXPECT_EQ(deg[u], 5u);
  EXPECT_FALSE(el.has_parallel_edges());
}

TEST(RandomPerfectMatching, IsPerfectMatching) {
  Rng rng(10);
  const EdgeList el = random_perfect_matching(100, rng);
  EXPECT_EQ(el.num_edges(), 100u);
  EXPECT_TRUE(is_matching(el));
  const auto deg = el.degrees();
  for (VertexId v = 0; v < 200; ++v) EXPECT_EQ(deg[v], 1u);
}

TEST(CompleteBipartite, AllPairs) {
  const EdgeList el = complete_bipartite(4, 6);
  EXPECT_EQ(el.num_edges(), 24u);
}

TEST(Star, CenterDegree) {
  const EdgeList el = star(10);
  EXPECT_EQ(el.num_edges(), 9u);
  EXPECT_EQ(el.degrees()[0], 9u);
}

TEST(StarForest, Layout) {
  const EdgeList el = star_forest(3, 4);
  EXPECT_EQ(el.num_vertices(), 15u);
  EXPECT_EQ(el.num_edges(), 12u);
  const auto deg = el.degrees();
  EXPECT_EQ(deg[0], 4u);
  EXPECT_EQ(deg[5], 4u);
  EXPECT_EQ(deg[10], 4u);
  EXPECT_EQ(deg[1], 1u);
}

TEST(PathAndCycle, EdgeCounts) {
  EXPECT_EQ(path(10).num_edges(), 9u);
  EXPECT_EQ(cycle(10).num_edges(), 10u);
  EXPECT_EQ(path(1).num_edges(), 0u);
}

TEST(ChungLu, AverageDegreeRoughlyMatches) {
  Rng rng(11);
  const VertexId n = 5000;
  const EdgeList el = chung_lu_power_law(n, 2.5, 8.0, rng);
  const double avg = 2.0 * static_cast<double>(el.num_edges()) / n;
  EXPECT_GT(avg, 4.0);
  EXPECT_LT(avg, 12.0);
}

TEST(ChungLu, SkewedDegrees) {
  Rng rng(12);
  const EdgeList el = chung_lu_power_law(5000, 2.2, 6.0, rng);
  const auto deg = el.degrees();
  // Vertex 0 carries the largest expected weight; it should far exceed the
  // average degree.
  EXPECT_GT(deg[0], 30u);
}

TEST(HubGadget, StructureAndMatchingSize) {
  const HubGadget g = hub_gadget(64, 8);
  EXPECT_EQ(g.edges.num_vertices(), 64u * 2 + 8);
  EXPECT_EQ(g.edges.num_edges(), 64u + 64u * 8);
  // Maximum matching = n (pair edges), hubs add nothing beyond that.
  const Graph graph = bipartite_graph(g.edges, g.left_size);
  EXPECT_TRUE(graph.bipartition_consistent());
}

class GnpSweep : public ::testing::TestWithParam<double> {};

TEST_P(GnpSweep, EdgeCountWithinFourSigma) {
  const double p = GetParam();
  Rng rng(static_cast<std::uint64_t>(p * 1e6) + 13);
  const VertexId n = 400;
  const double pairs = n * (n - 1) / 2.0;
  const EdgeList el = gnp(n, p, rng);
  const double mean = p * pairs;
  const double sigma = std::sqrt(pairs * p * (1 - p));
  EXPECT_NEAR(static_cast<double>(el.num_edges()), mean, 4 * sigma + 1);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, GnpSweep,
                         ::testing::Values(0.001, 0.01, 0.05, 0.2, 0.5, 0.9));

}  // namespace
}  // namespace rcc
