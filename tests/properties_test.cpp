// Reproduces the structural facts of Appendix A (Propositions A.1/A.2,
// Lemma A.3) as statistical tests.
#include "evidence/graph/properties.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "evidence/util/stats.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

TEST(InducedMatching, SimpleExamples) {
  // Path 0-1-2-3: no degree-1 pair adjacent (1 and 2 have degree 2).
  EXPECT_EQ(induced_matching(path(4)).num_edges(), 0u);
  // Two disjoint edges: both are induced.
  EdgeList el(4);
  el.add(0, 1);
  el.add(2, 3);
  EXPECT_EQ(induced_matching(el).num_edges(), 2u);
}

TEST(InducedMatching, IsAlwaysAMatching) {
  Rng rng(1);
  for (int rep = 0; rep < 10; ++rep) {
    const EdgeList el = gnp(300, 2.0 / 300, rng);
    EXPECT_TRUE(is_matching(induced_matching(el)));
  }
}

// Lemma A.3: G(n, n, 1/n) contains an induced matching of size >= n/e^3
// w.h.p. (their constructive lower bound). The exact expectation of the full
// induced matching is n/e^2: an edge is present w.p. 1/n and each endpoint
// isolated otherwise w.p. (1-1/n)^{n-1} -> 1/e, giving n^2 * (1/n) * e^{-2}.
TEST(InducedMatching, RandomBipartiteSizeMatchesLemmaA3) {
  Rng rng(2);
  const VertexId n = 20000;
  std::vector<double> sizes;
  for (int rep = 0; rep < 5; ++rep) {
    const EdgeList el = random_bipartite(n, n, 1.0 / n, rng);
    sizes.push_back(static_cast<double>(induced_matching(el).num_edges()) / n);
  }
  const Summary s = summarize(sizes);
  EXPECT_GE(s.mean, std::exp(-3.0));           // the lemma's guarantee
  EXPECT_NEAR(s.mean, std::exp(-2.0), 0.01);   // the exact expectation
}

// Proposition A.2(a): #degree-1 left vertices of G(n, n, 1/n) ~ n/e.
TEST(DegreeOne, LeftCountMatchesPropositionA2) {
  Rng rng(3);
  const VertexId n = 20000;
  std::vector<double> fracs;
  for (int rep = 0; rep < 5; ++rep) {
    const EdgeList el = random_bipartite(n, n, 1.0 / n, rng);
    fracs.push_back(static_cast<double>(degree_one_count(el, n)) / n);
  }
  EXPECT_NEAR(summarize(fracs).mean, std::exp(-1.0), 0.01);
}

// Proposition A.1: N balls in M bins; singleton bins in a subset B number
// about (|B|/M) * N / e.
TEST(BallsInBins, SingletonCountMatchesPropositionA1) {
  Rng rng(4);
  const std::uint64_t M = 30000;
  const std::uint64_t N = 20000;  // N < M as in the proposition
  const std::uint64_t B = 10000;  // first B bins are the tracked subset
  std::vector<double> counts;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<std::uint32_t> load(M, 0);
    for (std::uint64_t b = 0; b < N; ++b) ++load[rng.next_below(M)];
    std::uint64_t singles = 0;
    for (std::uint64_t i = 0; i < B; ++i) singles += (load[i] == 1) ? 1 : 0;
    counts.push_back(static_cast<double>(singles));
  }
  const double expected = (static_cast<double>(B) / M) * N *
                          std::exp(-static_cast<double>(N) / M);
  // Proposition A.1 states (B/M)*N/e for N = M; with N != M the Poisson rate
  // is N/M, hence the exact form above.
  EXPECT_NEAR(summarize(counts).mean / expected, 1.0, 0.03);
}

TEST(DegreeOneCount, PrefixRestriction) {
  EdgeList el(6);
  el.add(0, 5);
  el.add(1, 5);
  el.add(2, 3);
  // Degrees: 0:1 1:1 2:1 3:1 4:0 5:2.
  EXPECT_EQ(degree_one_count(el, 3), 3u);
  EXPECT_EQ(degree_one_count(el, 6), 4u);
}

TEST(CoversAllEdges, Detection) {
  EdgeList el(4);
  el.add(0, 1);
  el.add(2, 3);
  std::vector<bool> cover(4, false);
  EXPECT_FALSE(covers_all_edges(el, cover));
  cover[0] = true;
  EXPECT_FALSE(covers_all_edges(el, cover));
  cover[3] = true;
  EXPECT_TRUE(covers_all_edges(el, cover));
}

TEST(IsMatching, RejectsSharedEndpoint) {
  EdgeList el(4);
  el.add(0, 1);
  el.add(1, 2);
  EXPECT_FALSE(is_matching(el));
}

}  // namespace
}  // namespace rcc
