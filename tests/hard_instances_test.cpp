// Tests for the D_Matching / D_VC hard distributions and their probes
// (Sections 4.1, 4.2; Lemmas 4.1, 4.2).
#include "evidence/lower_bounds/hard_instances.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "evidence/graph/properties.hpp"
#include "evidence/lower_bounds/probes.hpp"
#include "evidence/util/stats.hpp"
#include "matching/max_matching.hpp"
#include "partition/sharded_partition.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

constexpr VertexId kN = 20000;
constexpr double kAlpha = 10.0;
constexpr std::size_t kK = 50;

TEST(DMatching, SetSizesAndUniverse) {
  Rng rng(1);
  const DMatchingInstance inst = make_d_matching(kN, kAlpha, kK, rng);
  EXPECT_EQ(inst.edges.num_vertices(), 2 * kN);
  std::size_t a = 0, b = 0;
  for (VertexId v = 0; v < kN; ++v) a += inst.in_A[v] ? 1 : 0;
  for (VertexId v = kN; v < 2 * kN; ++v) b += inst.in_B[v] ? 1 : 0;
  EXPECT_EQ(a, static_cast<std::size_t>(kN / kAlpha));
  EXPECT_EQ(b, static_cast<std::size_t>(kN / kAlpha));
}

TEST(DMatching, HiddenIsPerfectMatchingOnComplements) {
  Rng rng(2);
  const DMatchingInstance inst = make_d_matching(kN, kAlpha, kK, rng);
  EXPECT_EQ(inst.hidden.num_edges(),
            static_cast<std::size_t>(kN - kN / kAlpha));
  EXPECT_TRUE(is_matching(inst.hidden));
  for (const Edge& e : inst.hidden) {
    EXPECT_FALSE(inst.in_A[e.u]);
    EXPECT_FALSE(inst.in_B[e.v]);
    EXPECT_TRUE(inst.is_hidden_edge(e));
  }
}

TEST(DMatching, EabEdgeCountNearExpectation) {
  Rng rng(3);
  const DMatchingInstance inst = make_d_matching(kN, kAlpha, kK, rng);
  const double set_size = kN / kAlpha;
  const double expected = set_size * set_size * (kK * kAlpha / kN);
  const double eab =
      static_cast<double>(inst.edges.num_edges() - inst.hidden.num_edges());
  EXPECT_NEAR(eab / expected, 1.0, 0.05);
}

TEST(DMatching, WholeGraphHasNearPerfectMatching) {
  Rng rng(4);
  const DMatchingInstance inst = make_d_matching(4000, 8.0, 20, rng);
  const std::size_t mm = maximum_matching_size(inst.edges, inst.left_size());
  EXPECT_GE(mm, static_cast<std::size_t>(4000 - 4000 / 8.0));
}

TEST(DMatching, BipartiteStructure) {
  Rng rng(5);
  const DMatchingInstance inst = make_d_matching(2000, 8.0, 20, rng);
  for (const Edge& e : inst.edges) {
    EXPECT_LT(e.u, inst.n);
    EXPECT_GE(e.v, inst.n);
  }
}

// Lemma 4.1: per machine the induced matching has Theta(n/alpha) edges.
TEST(DMatching, InducedMatchingCensusMatchesLemma41) {
  Rng rng(6);
  const DMatchingInstance inst = make_d_matching(kN, kAlpha, kK, rng);
  const auto parts = shard_random(inst.edges, kK, rng);
  std::vector<double> sizes;
  std::vector<double> planted_fracs;
  for (std::size_t i = 0; i < kK; ++i) {
    const EdgeSpan piece = shard_span(parts, i);
    const InducedMatchingCensus c = induced_matching_census(piece, inst);
    sizes.push_back(static_cast<double>(c.induced_size));
    if (c.induced_size > 0) {
      planted_fracs.push_back(static_cast<double>(c.planted_inside) /
                              static_cast<double>(c.induced_size));
    }
  }
  const Summary size_summary = summarize(sizes);
  // Theta(n/alpha): between n/(4 alpha) and 2 n/alpha robustly.
  EXPECT_GT(size_summary.mean, kN / kAlpha / 4.0);
  EXPECT_LT(size_summary.mean, 2.0 * kN / kAlpha);
  // Planted fraction inside the induced matching: planted edges land
  // ~(n - n/alpha)/k per machine and are always induced (their endpoints
  // have global degree 1); E_AB contributes ~n/alpha piece-edges of which a
  // fraction e^{-2} is induced (each endpoint must have no second edge).
  // The ratio is Theta(alpha/k) — the Theorem 3 indistinguishability rate.
  const double planted_pm = (kN - kN / kAlpha) / static_cast<double>(kK);
  const double eab_induced_pm = (kN / kAlpha) * std::exp(-2.0);
  const double predicted = planted_pm / (planted_pm + eab_induced_pm);
  const Summary frac_summary = summarize(planted_fracs);
  EXPECT_NEAR(frac_summary.mean, predicted, 0.08);
  EXPECT_GT(frac_summary.mean, kAlpha / kK / 4.0);  // Theta(alpha/k) lower leg
}

// The planted edges land ~n/k per machine and are (nearly) all degree-1.
TEST(DMatching, PlantedEdgesPerMachine) {
  Rng rng(7);
  const DMatchingInstance inst = make_d_matching(kN, kAlpha, kK, rng);
  const auto parts = shard_random(inst.edges, kK, rng);
  std::vector<double> counts;
  for (std::size_t i = 0; i < kK; ++i) {
    const EdgeSpan piece = shard_span(parts, i);
    counts.push_back(static_cast<double>(hidden_edges_in(piece, inst)));
  }
  const double expected = (kN - kN / kAlpha) / static_cast<double>(kK);
  EXPECT_NEAR(summarize(counts).mean, expected, expected * 0.05);
}

TEST(DVc, StructureAndOptimum) {
  Rng rng(8);
  const DVcInstance inst = make_d_vc(kN, kAlpha, kK, rng);
  EXPECT_EQ(inst.edges.num_vertices(), 2 * kN);
  // v* is outside A (erratum fix; see DESIGN.md).
  EXPECT_FALSE(inst.in_A[inst.v_star]);
  EXPECT_LT(inst.v_star, kN);
  // e* is incident on v*.
  EXPECT_TRUE(inst.e_star.u == inst.v_star || inst.e_star.v == inst.v_star);
  // A u {v*} covers everything.
  std::vector<bool> cover(2 * kN, false);
  for (VertexId v = 0; v < 2 * kN; ++v) cover[v] = inst.in_A[v];
  cover[inst.v_star] = true;
  EXPECT_TRUE(covers_all_edges(inst.edges, cover));
  EXPECT_EQ(inst.opt_upper_bound(), static_cast<std::size_t>(kN / kAlpha) + 1);
}

TEST(DVc, EdgeCountNearExpectation) {
  Rng rng(9);
  const DVcInstance inst = make_d_vc(kN, kAlpha, kK, rng);
  const double expected = (kN / kAlpha) * kN * (kK / (2.0 * kN)) + 1;
  EXPECT_NEAR(static_cast<double>(inst.edges.num_edges()) / expected, 1.0, 0.05);
}

// Lemma 4.2: |L1_i| and |R1_i| are Theta(n/alpha) per machine.
TEST(DVc, DegreeOneCensusMatchesLemma42) {
  Rng rng(10);
  const DVcInstance inst = make_d_vc(kN, kAlpha, kK, rng);
  const auto parts = shard_random(inst.edges, kK, rng);
  std::vector<double> l1, r1;
  int e_star_holders = 0;
  for (std::size_t i = 0; i < kK; ++i) {
    const EdgeSpan piece = shard_span(parts, i);
    const DegreeOneCensus c = degree_one_census(piece, inst);
    l1.push_back(static_cast<double>(c.left_degree_one));
    r1.push_back(static_cast<double>(c.right_neighbors));
    e_star_holders += c.piece_contains_e_star ? 1 : 0;
  }
  EXPECT_EQ(e_star_holders, 1);  // exactly one machine holds e*
  const double n_over_alpha = kN / kAlpha;
  // Pr[deg = 1] ~ (1/2) e^{-1/2} ~ 0.303 per A-vertex (Claim in Lemma 4.2).
  EXPECT_GT(summarize(l1).mean, 0.15 * n_over_alpha);
  EXPECT_LT(summarize(l1).mean, 0.6 * n_over_alpha);
  EXPECT_GT(summarize(r1).mean, 0.15 * n_over_alpha);
  EXPECT_LT(summarize(r1).mean, 0.6 * n_over_alpha);
}

TEST(Probes, CoversEStar) {
  Rng rng(11);
  const DVcInstance inst = make_d_vc(1000, 5.0, 10, rng);
  VertexCover cover(2000);
  EXPECT_FALSE(covers_e_star(cover, inst));
  cover.insert(inst.v_star);
  EXPECT_TRUE(covers_e_star(cover, inst));
}

TEST(Probes, HiddenEdgesInMatching) {
  Rng rng(12);
  const DMatchingInstance inst = make_d_matching(1000, 5.0, 10, rng);
  // The hidden matching itself scores exactly its size.
  const Matching planted = Matching::from_edges(inst.hidden);
  EXPECT_EQ(hidden_edges_in(planted, inst), inst.hidden.num_edges());
}

}  // namespace
}  // namespace rcc
