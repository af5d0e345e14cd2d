// Protocol-grid property sweep: the headline invariants checked across a
// grid of (instance family x machine count x seed), including the
// vertex-partition model. One parameterized suite, every cell asserting:
//   - the composed matching is a valid matching made of real graph edges;
//   - it clears Theorem 1's factor-9 floor;
//   - the composed cover is feasible;
//   - communication is within the per-machine O(n) envelope.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "coreset/matching_coresets.hpp"
#include "distributed/protocols.hpp"
#include "evidence/partition/adversarial.hpp"
#include "graph/generators.hpp"
#include "matching/max_matching.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

struct GridInstance {
  EdgeList edges;
  VertexId left_size = 0;
};

GridInstance make_instance(const std::string& family, Rng& rng) {
  const VertexId n = 1500;
  if (family == "gnp") return {gnp(n, 5.0 / n, rng), 0};
  if (family == "bipartite") {
    return {random_bipartite(n / 2, n / 2, 8.0 / n, rng),
            static_cast<VertexId>(n / 2)};
  }
  if (family == "powerlaw") return {chung_lu_power_law(n, 2.4, 6.0, rng), 0};
  if (family == "planted") {
    EdgeList planted = random_perfect_matching(n / 2, rng);
    planted.append(gnp(n, 2.0 / n, rng));
    return {std::move(planted), 0};
  }
  RCC_CHECK(false);
  return {};
}

class ProtocolGrid
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>> {};

TEST_P(ProtocolGrid, MatchingInvariants) {
  const auto [family, k, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 1000003);
  const GridInstance inst = make_instance(family, rng);
  const std::size_t opt =
      maximum_matching_size(inst.edges, inst.left_size);
  if (opt == 0) GTEST_SKIP();

  const MatchingProtocolResult r = coreset_matching_protocol(
      inst.edges, static_cast<std::size_t>(k), inst.left_size, rng, nullptr);
  EXPECT_TRUE(r.solution.valid());
  EXPECT_TRUE(r.solution.subset_of(inst.edges));
  EXPECT_GE(9 * r.solution.size(), opt);
  EXPECT_LE(r.solution.size(), opt);
  // Per-machine message within the O(n) envelope (a matching).
  EXPECT_LE(r.comm.max_machine_words(),
            static_cast<std::uint64_t>(inst.edges.num_vertices()));
}

TEST_P(ProtocolGrid, VertexCoverInvariants) {
  const auto [family, k, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 2000003);
  const GridInstance inst = make_instance(family, rng);
  const VcProtocolResult r =
      coreset_vc_protocol(inst.edges, static_cast<std::size_t>(k), rng, nullptr);
  EXPECT_TRUE(r.solution.covers(inst.edges));
  // A cover never exceeds the vertex count; with matching LB, never less
  // than MM (weak sanity both ways).
  EXPECT_LE(r.solution.size(), inst.edges.num_vertices());
  EXPECT_GE(r.solution.size(), maximum_matching_size(inst.edges, inst.left_size));
}

TEST_P(ProtocolGrid, VertexPartitionModelStillSound) {
  // The [10] vertex-partition model duplicates cross-machine edges; the
  // engine must still produce valid output (guarantees differ; soundness
  // must not).
  const auto [family, k, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 3000017);
  const GridInstance inst = make_instance(family, rng);
  const auto pieces =
      random_vertex_partition(inst.edges, static_cast<std::size_t>(k), rng);
  const MaximumMatchingCoreset coreset;
  const MatchingProtocolResult r = run_matching_protocol_on_partition(
      pieces_of(pieces), inst.edges.num_vertices(), coreset,
      ComposeSolver::kMaximum, inst.left_size, rng);
  EXPECT_TRUE(r.solution.valid());
  EXPECT_TRUE(r.solution.subset_of(inst.edges));
  // In this model every machine holds all edges of its vertices, so the
  // composition is at least as good as the edge-partition coreset in
  // expectation; assert the same factor-9 floor.
  EXPECT_GE(9 * r.solution.size(),
            maximum_matching_size(inst.edges, inst.left_size));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProtocolGrid,
    ::testing::Combine(::testing::Values("gnp", "bipartite", "powerlaw",
                                         "planted"),
                       ::testing::Values(2, 8, 24),
                       ::testing::Values(1, 2)));

}  // namespace
}  // namespace rcc
