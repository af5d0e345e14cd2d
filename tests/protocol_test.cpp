// Simultaneous-protocol engine tests (coordinator model, Section 2).
#include "distributed/protocols.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "coreset/matching_coresets.hpp"
#include "evidence/partition/adversarial.hpp"
#include "graph/generators.hpp"
#include "matching/max_matching.hpp"
#include "util/rng.hpp"
#include "vertex_cover/konig.hpp"

namespace rcc {
namespace {

TEST(MessageSize, WordAccounting) {
  MessageSize m;
  m.edges = 10;
  m.vertices = 5;
  EXPECT_EQ(m.words(), 25u);
  EXPECT_EQ(word_bits(1024), 10u);
  EXPECT_EQ(word_bits(1025), 11u);
  EXPECT_EQ(word_bits(2), 1u);
  EXPECT_EQ(m.bits(1024), 250u);
}

TEST(CommStats, Aggregation) {
  CommStats c;
  c.per_machine = {{10, 0}, {5, 3}};
  EXPECT_EQ(c.total_words(), 20u + 13u);
  EXPECT_EQ(c.max_machine_words(), 20u);
  EXPECT_GT(c.total_megabytes(1 << 20), 0.0);
}

TEST(MatchingProtocol, EndToEndValidAndAccounted) {
  Rng rng(1);
  const VertexId n = 2000;
  const EdgeList el = gnp(n, 4.0 / n, rng);
  const MatchingProtocolResult r =
      coreset_matching_protocol(el, 8, 0, rng, nullptr);
  EXPECT_TRUE(r.solution.valid());
  EXPECT_TRUE(r.solution.subset_of(el));
  ASSERT_EQ(r.comm.per_machine.size(), 8u);
  // The ledger counts exactly the summary edges.
  std::uint64_t edges = 0;
  for (const auto& s : r.summaries) edges += s.num_edges();
  EXPECT_EQ(r.comm.total_words(), 2 * edges);
  // Per-machine message is O(n) words (a matching has <= n/2 edges).
  EXPECT_LE(r.comm.max_machine_words(), static_cast<std::uint64_t>(n));
}

TEST(MatchingProtocol, ParallelAndSequentialGiveSameResult) {
  const VertexId n = 1500;
  Rng gen(2);
  const EdgeList el = gnp(n, 5.0 / n, gen);
  ThreadPool pool(4);
  Rng rng_seq(77);
  Rng rng_par(77);
  const MatchingProtocolResult seq =
      coreset_matching_protocol(el, 6, 0, rng_seq, nullptr);
  const MatchingProtocolResult par =
      coreset_matching_protocol(el, 6, 0, rng_par, &pool);
  EXPECT_EQ(seq.solution.size(), par.solution.size());
  EXPECT_EQ(seq.comm.total_words(), par.comm.total_words());
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(seq.summaries[i].num_edges(), par.summaries[i].num_edges());
  }
}

TEST(MatchingProtocol, ConstantFactorOnRandomGraphs) {
  Rng rng(3);
  const VertexId n = 3000;
  const EdgeList el = gnp(n, 4.0 / n, rng);
  const std::size_t opt = maximum_matching_size(el);
  const MatchingProtocolResult r =
      coreset_matching_protocol(el, 10, 0, rng, nullptr);
  EXPECT_GE(9 * r.solution.size(), opt);  // Theorem 1 bound
}

TEST(SubsampledProtocol, CommunicationDropsQuadratically) {
  // On a planted perfect matching every piece's maximum matching is the
  // piece itself, so alpha cleanly divides the message size.
  Rng rng(4);
  const VertexId side = 20000;
  const EdgeList el = random_perfect_matching(side, rng);
  const std::size_t k = 10;
  const MatchingProtocolResult full =
      coreset_matching_protocol(el, k, side, rng, nullptr);
  const MatchingProtocolResult sub =
      subsampled_matching_protocol(el, k, 4.0, side, rng, nullptr);
  const double shrink = static_cast<double>(sub.comm.total_words()) /
                        static_cast<double>(full.comm.total_words());
  EXPECT_NEAR(shrink, 0.25, 0.05);
  // The matching found is ~1/alpha of optimum.
  EXPECT_NEAR(static_cast<double>(sub.solution.size()) / side, 0.25, 0.05);
}

TEST(VcProtocol, CoversAndLogApproximates) {
  Rng rng(5);
  const VertexId side = 3000;
  const EdgeList el = random_bipartite(side, side, 3.0 / side, rng);
  const VcProtocolResult r = coreset_vc_protocol(el, 8, rng, nullptr);
  EXPECT_TRUE(r.solution.covers(el));
  const std::size_t opt = konig_vc_size(bipartite_graph(el, side));
  EXPECT_LE(static_cast<double>(r.solution.size()),
            4.0 * std::log2(2.0 * side) * static_cast<double>(opt));
  ASSERT_EQ(r.comm.per_machine.size(), 8u);
  EXPECT_GT(r.comm.total_words(), 0u);
}

TEST(VcProtocol, ParallelMatchesSequential) {
  Rng gen(6);
  const EdgeList el = gnp(2000, 6.0 / 2000, gen);
  ThreadPool pool(4);
  Rng a(55), b(55);
  const VcProtocolResult seq = coreset_vc_protocol(el, 5, a, nullptr);
  const VcProtocolResult par = coreset_vc_protocol(el, 5, b, &pool);
  EXPECT_EQ(seq.solution.size(), par.solution.size());
}

TEST(GroupedVcProtocol, CoverIsFeasible) {
  Rng rng(7);
  const VertexId side = 4000;
  const EdgeList el = random_bipartite(side, side, 2.0 / side, rng);
  const GroupedVcProtocolResult r = grouped_vc_protocol(el, 8, 64.0, rng, nullptr);
  EXPECT_TRUE(r.solution.covers(el));
}

TEST(GroupedVcProtocol, CommunicationShrinksWithAlpha) {
  // Dense instance (avg degree ~100): on the contracted multigraph the
  // super-vertex degrees exceed the peeling thresholds, so a coarser
  // grouping replaces most edges with fixed super-vertices and the message
  // shrinks. Alpha must keep the contracted universe inside the peeling
  // regime n'/2k > 4 log2 n' (Remark 5.8 presumes it); alpha = 128 with
  // n = 8000, k = 8 gives n' ~ 890, which qualifies, while much larger
  // alpha would leave Delta = 1 and no guarantee at all.
  Rng rng(8);
  const VertexId side = 4000;
  const EdgeList el = random_bipartite(side, side, 100.0 / side, rng);
  const std::size_t k = 8;
  const GroupedVcProtocolResult fine = grouped_vc_protocol(el, k, 26.0, rng, nullptr);
  const GroupedVcProtocolResult coarse = grouped_vc_protocol(el, k, 128.0, rng, nullptr);
  EXPECT_LT(2 * coarse.comm.total_words(), fine.comm.total_words());
}

TEST(GroupedVcProtocol, AlphaBelowLogDegeneratesToUngrouped) {
  Rng rng(9);
  const VertexId side = 500;
  const EdgeList el = random_bipartite(side, side, 4.0 / side, rng);
  // alpha < log2 n => group size 1; must behave like the plain protocol.
  const GroupedVcProtocolResult r = grouped_vc_protocol(el, 4, 1.0, rng, nullptr);
  EXPECT_TRUE(r.solution.covers(el));
}

TEST(MatchingProtocol, AdversarialPartitionStillSound) {
  // The engine works on any partition; guarantees differ but outputs must
  // always be valid matchings of G.
  Rng rng(10);
  const EdgeList el = gnp(1000, 0.01, rng);
  const auto pieces = sorted_chunk_partition(el, 6);
  const MaximumMatchingCoreset coreset;
  const MatchingProtocolResult r = run_matching_protocol_on_partition(
      pieces_of(pieces), el.num_vertices(), coreset, ComposeSolver::kMaximum,
      0, rng);
  EXPECT_TRUE(r.solution.valid());
  EXPECT_TRUE(r.solution.subset_of(el));
}

}  // namespace
}  // namespace rcc
