#include "evidence/vertex_cover/peeling.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "vertex_cover/konig.hpp"

namespace rcc {
namespace {

TEST(ParnasRon, ResidualDegreeIsBounded) {
  Rng rng(1);
  const VertexId n = 4000;
  const EdgeList el = gnp(n, 0.01, rng);
  const PeelingResult r = parnas_ron_peeling(el);
  const auto deg = r.residual.degrees();
  const double bound = 2.0 * std::max(4.0 * std::log2(static_cast<double>(n)), 1.0);
  for (VertexId v = 0; v < n; ++v) {
    EXPECT_LE(static_cast<double>(deg[v]), bound) << v;
  }
}

TEST(ParnasRon, PeeledPlusResidualCoverAccountsForAllEdges) {
  Rng rng(2);
  const EdgeList el = gnp(1000, 0.02, rng);
  const PeelingResult r = parnas_ron_peeling(el);
  std::vector<bool> peeled(el.num_vertices(), false);
  for (VertexId v : r.all_peeled()) peeled[v] = true;
  // Every original edge is either incident on a peeled vertex or survives.
  std::size_t explained = r.residual.num_edges();
  for (const Edge& e : el) {
    if (peeled[e.u] || peeled[e.v]) ++explained;
  }
  EXPECT_EQ(explained, el.num_edges());
}

TEST(ParnasRon, VertexCoverIsFeasible) {
  Rng rng(3);
  for (int rep = 0; rep < 5; ++rep) {
    const EdgeList el = gnp(800, 0.015, rng);
    const VertexCover c = parnas_ron_vertex_cover(el, rng);
    EXPECT_TRUE(c.covers(el));
  }
}

TEST(ParnasRon, LogNApproximationOnBipartite) {
  Rng rng(4);
  const VertexId side = 1500;
  const EdgeList el = random_bipartite(side, side, 0.005, rng);
  const VertexCover c = parnas_ron_vertex_cover(el, rng);
  EXPECT_TRUE(c.covers(el));
  const std::size_t opt = konig_vc_size(bipartite_graph(el, side));
  const double log_n = std::log2(static_cast<double>(2 * side));
  EXPECT_LE(static_cast<double>(c.size()),
            std::max(4.0, 4.0 * log_n) * static_cast<double>(opt));
}

TEST(ParnasRon, EmptyGraph) {
  const PeelingResult r = parnas_ron_peeling(EdgeList(10));
  EXPECT_TRUE(r.residual.empty());
  EXPECT_TRUE(r.all_peeled().empty());
}

TEST(HypotheticalPeeling, RequiresValidCoverEdges) {
  // Edges not covered by the claimed cover abort (contract check).
  EdgeList el(4);
  el.add(0, 1);
  std::vector<bool> fake_cover(4, false);
  EXPECT_DEATH(hypothetical_peeling(el, fake_cover), "RCC_CHECK");
}

TEST(HypotheticalPeeling, SizeBoundLemma35) {
  // |union O_j u Obar_j| = O(log n) * VC(G): check with constant 16 which is
  // twice the paper's per-level factor of 8.
  Rng rng(5);
  const VertexId side = 800;
  const EdgeList el = random_bipartite(side, side, 0.01, rng);
  const Graph g = bipartite_graph(el, side);
  const VertexCover opt = konig_min_vertex_cover(g);
  const HypotheticalPeeling hp = hypothetical_peeling(el, opt.indicator());
  const double log_n = std::log2(static_cast<double>(2 * side));
  EXPECT_LE(static_cast<double>(hp.total_size()),
            16.0 * log_n * static_cast<double>(opt.size()) + 16.0);
}

TEST(HypotheticalPeeling, OLevelsAreInsideCover) {
  Rng rng(6);
  const VertexId side = 300;
  const EdgeList el = random_bipartite(side, side, 0.02, rng);
  const Graph g = bipartite_graph(el, side);
  const VertexCover opt = konig_min_vertex_cover(g);
  const HypotheticalPeeling hp = hypothetical_peeling(el, opt.indicator());
  for (VertexId v : hp.all_o()) EXPECT_TRUE(opt.contains(v));
  for (VertexId v : hp.all_obar()) EXPECT_FALSE(opt.contains(v));
}

TEST(HypotheticalPeeling, PerLevelObarBoundLemma35) {
  // Lemma 3.5's inner claim: |Obar_j| <= 8 VC(G) for every level j.
  Rng rng(7);
  const VertexId side = 600;
  const EdgeList el = random_bipartite(side, side, 0.015, rng);
  const Graph g = bipartite_graph(el, side);
  const VertexCover opt = konig_min_vertex_cover(g);
  const HypotheticalPeeling hp = hypothetical_peeling(el, opt.indicator());
  for (const auto& level : hp.obar_levels) {
    EXPECT_LE(level.size(), 8 * opt.size() + 8);
  }
}

}  // namespace
}  // namespace rcc
