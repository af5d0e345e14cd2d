#include "matching/weighted.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/rng.hpp"

namespace rcc {
namespace {

WeightedEdgeList random_weighted(VertexId n, double p, double wmax, Rng& rng) {
  WeightedEdgeList w;
  w.num_vertices = n;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.bernoulli(p)) w.add(u, v, rng.uniform_real(0.1, wmax));
    }
  }
  return w;
}

TEST(MatchingWeight, SumsEdgeWeights) {
  WeightedEdgeList w;
  w.num_vertices = 4;
  w.add(0, 1, 2.5);
  w.add(2, 3, 1.5);
  Matching m(4);
  m.match(0, 1);
  m.match(2, 3);
  EXPECT_DOUBLE_EQ(matching_weight(m, w), 4.0);
}

TEST(MatchingWeight, ParallelEdgesUseMaxWeight) {
  WeightedEdgeList w;
  w.num_vertices = 2;
  w.add(0, 1, 1.0);
  w.add(0, 1, 3.0);
  Matching m(2);
  m.match(0, 1);
  EXPECT_DOUBLE_EQ(matching_weight(m, w), 3.0);
}

TEST(GreedyWeighted, PicksHeaviestCompatible) {
  WeightedEdgeList w;
  w.num_vertices = 4;
  w.add(0, 1, 1.0);
  w.add(1, 2, 10.0);
  w.add(2, 3, 1.0);
  const Matching m = greedy_weighted_matching(w);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.mate(1), 2u);
}

TEST(GreedyWeighted, HalfApproximationOnRandomInstances) {
  Rng rng(1);
  for (int rep = 0; rep < 10; ++rep) {
    WeightedEdgeList w = random_weighted(9, 0.4, 10.0, rng);
    if (w.edges.size() > 24) continue;
    const double opt = exact_max_weight_matching(w);
    const double greedy = matching_weight(greedy_weighted_matching(w), w);
    EXPECT_GE(greedy * 2.0 + 1e-9, opt);
  }
}

TEST(SplitWeightClasses, GeometricBuckets) {
  WeightedEdgeList w;
  w.num_vertices = 8;
  w.add(0, 1, 1.0);   // class 0 (floor 1)
  w.add(2, 3, 2.5);   // class 1 (floor 2)
  w.add(4, 5, 4.0);   // class 2 (floor 4)
  w.add(6, 7, 7.9);   // class 2
  const WeightClasses wc = split_weight_classes(w, 2.0);
  ASSERT_EQ(wc.classes.size(), 3u);
  // Heaviest first.
  EXPECT_EQ(wc.classes[0].num_edges(), 2u);
  EXPECT_EQ(wc.classes[1].num_edges(), 1u);
  EXPECT_EQ(wc.classes[2].num_edges(), 1u);
  EXPECT_DOUBLE_EQ(wc.class_floor[0], 4.0);
  EXPECT_DOUBLE_EQ(wc.class_floor[2], 1.0);
}

/// Every positive edge must sit in the class whose floor brackets its
/// weight: floor <= w < floor * base, up to the rounding of the logs the
/// classes are computed in. Floors must be finite and the lightest class
/// starts at the lightest weight.
void expect_bracketed(const WeightedEdgeList& w, const WeightClasses& wc,
                      double base) {
  constexpr double kSlack = 1e-12;
  double wmin = 0.0;
  for (const WeightedEdge& we : w.edges) {
    if (we.weight > 0.0 && (wmin == 0.0 || we.weight < wmin)) wmin = we.weight;
  }
  ASSERT_EQ(wc.class_floor.size(), wc.classes.size());
  EXPECT_EQ(wc.class_floor.back(), wmin);
  for (const double floor : wc.class_floor) EXPECT_TRUE(std::isfinite(floor));
  for (const WeightedEdge& we : w.edges) {
    std::size_t slot = wc.classes.size();
    for (std::size_t s = 0; s < wc.classes.size(); ++s) {
      for (const Edge& e : wc.classes[s]) {
        if (e == we.edge()) slot = s;
      }
    }
    ASSERT_LT(slot, wc.classes.size()) << "weight " << we.weight;
    const double floor = wc.class_floor[slot];
    EXPECT_LE(floor, we.weight * (1 + kSlack)) << "weight " << we.weight;
    EXPECT_LT(we.weight, floor * base * (1 + kSlack))
        << "weight " << we.weight;
  }
}

TEST(SplitWeightClasses, SubnormalBesideTheLargestDouble) {
  // DBL_MAX / denorm_min overflows to +inf: the classes must still be
  // finite. log2(DBL_MAX / denorm_min) is a hair below 2098, so there are
  // 2098 or 2099 classes depending on the rounding of the logs.
  WeightedEdgeList w;
  w.num_vertices = 4;
  w.add(0, 1, std::numeric_limits<double>::denorm_min());
  w.add(2, 3, std::numeric_limits<double>::max());
  const WeightClasses wc = split_weight_classes(w, 2.0);
  EXPECT_GE(wc.classes.size(), 2098u);
  EXPECT_LE(wc.classes.size(), 2099u);
  EXPECT_EQ(wc.classes.front().num_edges(), 1u);  // DBL_MAX, heaviest
  EXPECT_EQ(wc.classes.back().num_edges(), 1u);   // denorm_min, lightest
  expect_bracketed(w, wc, 2.0);
}

TEST(SplitWeightClasses, SubnormalBesideAHugeWeight) {
  // 1e30 / denorm_min overflows too; log2 of the ratio is 1173.66, so the
  // heavy edge is class 1173 of 1174.
  WeightedEdgeList w;
  w.num_vertices = 4;
  w.add(0, 1, std::numeric_limits<double>::denorm_min());
  w.add(2, 3, 1e30);
  const WeightClasses wc = split_weight_classes(w, 2.0);
  ASSERT_EQ(wc.classes.size(), 1174u);
  EXPECT_EQ(wc.classes.front().num_edges(), 1u);
  EXPECT_EQ(wc.classes.back().num_edges(), 1u);
  expect_bracketed(w, wc, 2.0);
}

TEST(SplitWeightClasses, AllZeroWeights) {
  WeightedEdgeList w;
  w.num_vertices = 2;
  w.add(0, 1, 0.0);
  const WeightClasses wc = split_weight_classes(w);
  ASSERT_EQ(wc.classes.size(), 1u);
  EXPECT_TRUE(wc.classes[0].empty());
}

TEST(CrouchStubbs, ValidMatching) {
  Rng rng(2);
  WeightedEdgeList w = random_weighted(50, 0.1, 100.0, rng);
  const Matching m = crouch_stubbs_matching(w);
  EXPECT_TRUE(m.valid());
  // Every matched edge exists in the instance.
  EdgeList support(w.num_vertices);
  for (const auto& we : w.edges) support.add(we.u, we.v);
  EXPECT_TRUE(m.subset_of(support));
}

TEST(CrouchStubbs, ApproximationOnSmallInstances) {
  // Guarantee with base-2 classes: >= OPT / 4 (factor 2 from rounding within
  // a class times factor 2 from the greedy merge). Assert the factor-4 bound.
  Rng rng(3);
  int tested = 0;
  for (int rep = 0; rep < 40 && tested < 12; ++rep) {
    WeightedEdgeList w = random_weighted(9, 0.35, 40.0, rng);
    if (w.edges.empty() || w.edges.size() > 22) continue;
    ++tested;
    const double opt = exact_max_weight_matching(w);
    const double cs = matching_weight(crouch_stubbs_matching(w), w);
    EXPECT_GE(cs * 4.0 + 1e-9, opt);
  }
  EXPECT_GE(tested, 5);
}

TEST(ExactMaxWeight, KnownInstance) {
  WeightedEdgeList w;
  w.num_vertices = 4;
  w.add(0, 1, 3.0);
  w.add(1, 2, 4.0);
  w.add(2, 3, 3.0);
  // Taking the two outer edges (3+3) beats the middle (4).
  EXPECT_DOUBLE_EQ(exact_max_weight_matching(w), 6.0);
}

TEST(ExactMaxWeight, EmptyInstance) {
  WeightedEdgeList w;
  w.num_vertices = 3;
  EXPECT_DOUBLE_EQ(exact_max_weight_matching(w), 0.0);
}

}  // namespace
}  // namespace rcc
