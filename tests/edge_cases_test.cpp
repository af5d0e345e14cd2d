// Failure-injection and boundary-condition tests across the pipeline:
// empty graphs, k larger than m, degenerate parameters, duplicate edges.
#include <gtest/gtest.h>

#include <cstdint>

#include "coreset/compose.hpp"
#include "coreset/matching_coresets.hpp"
#include "coreset/vc_coreset.hpp"
#include "distributed/protocols.hpp"
#include "graph/generators.hpp"
#include "matching/max_matching.hpp"
#include "mpc/coreset_mpc.hpp"
#include "mpc/filtering_mpc.hpp"
#include "partition/partition.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

TEST(EdgeCases, EmptyGraphThroughMatchingProtocol) {
  Rng rng(1);
  const EdgeList empty(100);
  const MatchingProtocolResult r =
      coreset_matching_protocol(empty, 4, 0, rng, nullptr);
  EXPECT_EQ(r.solution.size(), 0u);
  EXPECT_EQ(r.comm.total_words(), 0u);
}

TEST(EdgeCases, EmptyGraphThroughVcProtocol) {
  Rng rng(2);
  const EdgeList empty(100);
  const VcProtocolResult r = coreset_vc_protocol(empty, 4, rng, nullptr);
  EXPECT_EQ(r.solution.size(), 0u);
  EXPECT_TRUE(r.solution.covers(empty));
}

TEST(EdgeCases, MoreMachinesThanEdges) {
  Rng rng(3);
  EdgeList tiny(10);
  tiny.add(0, 1);
  tiny.add(2, 3);
  const MatchingProtocolResult r =
      coreset_matching_protocol(tiny, 16, 0, rng, nullptr);
  EXPECT_EQ(r.solution.size(), 2u);  // both edges survive somewhere
}

TEST(EdgeCases, SingleMachineProtocolIsCentralized) {
  Rng rng(4);
  const EdgeList el = gnp(500, 0.02, rng);
  const MatchingProtocolResult r =
      coreset_matching_protocol(el, 1, 0, rng, nullptr);
  // One machine's coreset is a maximum matching of all of G.
  EXPECT_EQ(r.solution.size(), maximum_matching_size(el));
}

TEST(EdgeCases, SingleEdgeGraph) {
  Rng rng(5);
  EdgeList one(2);
  one.add(0, 1);
  const MatchingProtocolResult r = coreset_matching_protocol(one, 8, 0, rng, nullptr);
  EXPECT_EQ(r.solution.size(), 1u);
  const VcProtocolResult v = coreset_vc_protocol(one, 8, rng, nullptr);
  EXPECT_TRUE(v.solution.covers(one));
}

TEST(EdgeCases, ParallelEdgesSurviveThePipeline) {
  Rng rng(6);
  EdgeList multi(6);
  for (int rep = 0; rep < 5; ++rep) {
    multi.add(0, 1);
    multi.add(2, 3);
    multi.add(4, 5);
  }
  const MatchingProtocolResult r =
      coreset_matching_protocol(multi, 3, 0, rng, nullptr);
  EXPECT_EQ(r.solution.size(), 3u);
  const VcProtocolResult v = coreset_vc_protocol(multi, 3, rng, nullptr);
  EXPECT_TRUE(v.solution.covers(multi));
}

TEST(EdgeCases, PeelingCoresetOnEmptyPiece) {
  Rng rng(7);
  const PeelingVcCoreset coreset;
  PartitionContext ctx{1000, 4, 0, 0};
  const VcCoresetOutput out = coreset.build(EdgeList(1000), ctx, rng);
  EXPECT_TRUE(out.fixed_vertices.empty());
  EXPECT_TRUE(out.residual_edges.empty());
}

TEST(EdgeCases, MaximumMatchingCoresetOnStar) {
  // A piece that is a star: maximum matching is a single edge.
  Rng rng(8);
  const MaximumMatchingCoreset coreset;
  PartitionContext ctx{50, 2, 0, 0};
  const EdgeList out = coreset.build(star(50), ctx, rng);
  EXPECT_EQ(out.num_edges(), 1u);
}

TEST(EdgeCases, FilteringMpcOnEmptyGraph) {
  Rng rng(9);
  MpcConfig cfg{4, 1000};
  const FilteringMpcResult r = filtering_mpc_rounds(
      EdgeList(10), {.mpc = cfg, .max_rounds = SIZE_MAX}, rng);
  EXPECT_EQ(r.maximal_matching.size(), 0u);
  EXPECT_EQ(r.rounds, 1u);
}

TEST(EdgeCases, CoresetMpcTinyGraph) {
  Rng rng(10);
  EdgeList el(4);
  el.add(0, 1);
  el.add(2, 3);
  MpcConfig cfg{2, 1000};
  const CoresetMpcMatchingResult r = coreset_mpc_matching_rounds(
      el, {.mpc = cfg, .max_rounds = 1, .input_already_random = false}, 0,
      rng);
  EXPECT_EQ(r.matching.size(), 2u);
}

TEST(EdgeCases, ComposeWithAllEmptySummaries) {
  Rng rng(11);
  std::vector<EdgeList> empties(4, EdgeList(10));
  const Matching m =
      compose_matching_coresets(empties, ComposeSolver::kMaximum, 0, rng);
  EXPECT_EQ(m.size(), 0u);
  std::vector<VcCoresetOutput> vc_empties(4);
  for (auto& s : vc_empties) s.residual_edges = EdgeList(10);
  const VertexCover c = compose_vc_coresets(vc_empties, 10, rng);
  EXPECT_EQ(c.size(), 0u);
}

TEST(EdgeCases, DeterminismAcrossRuns) {
  const EdgeList el = [] {
    Rng g(12);
    return gnp(800, 0.01, g);
  }();
  Rng a(777), b(777);
  const MatchingProtocolResult ra = coreset_matching_protocol(el, 5, 0, a, nullptr);
  const MatchingProtocolResult rb = coreset_matching_protocol(el, 5, 0, b, nullptr);
  EXPECT_EQ(ra.solution.size(), rb.solution.size());
  EXPECT_EQ(ra.comm.total_words(), rb.comm.total_words());
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_EQ(ra.summaries[i].num_edges(), rb.summaries[i].num_edges());
    for (std::size_t j = 0; j < ra.summaries[i].num_edges(); ++j) {
      EXPECT_EQ(ra.summaries[i][j], rb.summaries[i][j]);
    }
  }
}

TEST(EdgeCases, GroupedProtocolGroupLargerThanUniverse) {
  Rng rng(13);
  EdgeList el(8);
  el.add(0, 5);
  el.add(1, 6);
  // alpha enormous: one group swallowing everything; cover = whole universe
  // but still feasible.
  const GroupedVcProtocolResult r = grouped_vc_protocol(el, 2, 1e6, rng, nullptr);
  EXPECT_TRUE(r.solution.covers(el));
}

}  // namespace
}  // namespace rcc
