// Structural property grid for the EDCS machine summary (matching/edcs.hpp)
// and validity checks on the combined EDCS-round solution.
//
// The two degree invariants are checked directly, edge by edge, in integer
// arithmetic — every H edge must satisfy deg_H(u) + deg_H(v) <= beta (P1)
// and every G \ H edge deg_H(u) + deg_H(v) >= beta - lambda (P2) — across a
// generator x seed x k grid of randomly partitioned pieces, for several
// (beta, lambda) settings. The suite also pins the builder's determinism
// contract (pure function of the edge multiset: arrival order and parallel
// copies cannot change the output) and the subgraph/validity story of
// run_matching_rounds_edcs' combined solution.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "matching/edcs.hpp"
#include "matching/max_matching.hpp"
#include "mpc/edcs_rounds.hpp"
#include "partition/sharded_partition.hpp"
#include "util/rng.hpp"
#include "util/workspace.hpp"

namespace rcc {
namespace {

struct Instance {
  std::string name;
  EdgeList edges;
  VertexId left_size;
};

std::vector<Instance> instance_grid(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Instance> instances;
  instances.push_back({"empty", EdgeList(40), 0});
  instances.push_back({"gnp-sparse", gnp(300, 4.0 / 300, rng), 0});
  instances.push_back({"gnp-dense", gnp(120, 0.2, rng), 0});
  instances.push_back({"bipartite", random_bipartite(80, 100, 0.08, rng), 80});
  instances.push_back({"crown-forest", crown_forest(12, 3), 0});
  instances.push_back({"star-forest", star_forest(12, 15), 0});
  instances.push_back({"path", path(150), 0});
  instances.push_back({"cycle", cycle(101), 0});
  return instances;
}

constexpr std::uint64_t kSeeds[] = {101, 202, 303};
constexpr std::size_t kMachineCounts[] = {2, 4, 8};

const EdcsParams kParamGrid[] = {
    {.beta = 2, .lambda = 1},   // the degenerate floor
    {.beta = 8, .lambda = 1},
    {.beta = 16, .lambda = 2},  // the flag defaults
    {.beta = 16, .lambda = 8},
    {.beta = 32, .lambda = 4},
};

std::vector<std::size_t> degrees_of(EdgeSpan edges) {
  std::vector<std::size_t> deg(edges.num_vertices(), 0);
  for (const Edge& e : edges) {
    ++deg[e.u];
    ++deg[e.v];
  }
  return deg;
}

TEST(EdcsStructure, DegreeInvariantsHoldAcrossTheGrid) {
  for (std::uint64_t seed : kSeeds) {
    for (const Instance& inst : instance_grid(seed)) {
      for (std::size_t k : kMachineCounts) {
        Rng rng(seed ^ (k << 8));
        const auto parts = shard_random(inst.edges, k, rng);
        for (const EdcsParams& params : kParamGrid) {
          for (std::size_t i = 0; i < k; ++i) {
            const EdgeList h = build_edcs(shard_span(parts, i), params);
            // The library oracle first...
            EXPECT_TRUE(edcs_invariants_hold(shard_span(parts, i), h, params))
                << inst.name << " seed=" << seed << " k=" << k
                << " machine=" << i << " beta=" << params.beta
                << " lambda=" << params.lambda;
            // ... and the invariants spelled out independently, edge by
            // edge, so a bug in the oracle cannot vouch for a bug in the
            // builder. The builder outputs one copy per distinct pair, so
            // plain degree counts over h ARE deg_H.
            const std::vector<std::size_t> deg = degrees_of(h);
            for (const Edge& e : h) {
              EXPECT_LE(deg[e.u] + deg[e.v], params.beta)  // P1
                  << inst.name << " H-edge " << e.u << "-" << e.v;
            }
            std::vector<Edge> h_sorted(h.begin(), h.end());
            std::sort(h_sorted.begin(), h_sorted.end());
            for (const Edge& raw : shard_span(parts, i)) {
              const Edge e = make_edge(raw.u, raw.v);
              if (std::binary_search(h_sorted.begin(), h_sorted.end(), e)) {
                continue;
              }
              EXPECT_GE(deg[e.u] + deg[e.v] + params.lambda, params.beta)  // P2
                  << inst.name << " G\\H edge " << e.u << "-" << e.v;
            }
          }
        }
      }
    }
  }
}

TEST(EdcsStructure, SummaryIsASubgraphWithCappedDegrees) {
  for (std::uint64_t seed : kSeeds) {
    for (const Instance& inst : instance_grid(seed)) {
      const EdcsParams params{.beta = 8, .lambda = 2};
      const EdgeList h = build_edcs(inst.edges, params);
      std::vector<Edge> graph_sorted(inst.edges.begin(), inst.edges.end());
      std::sort(graph_sorted.begin(), graph_sorted.end());
      std::vector<Edge> seen;
      for (const Edge& e : h) {
        EXPECT_LT(e.u, e.v) << inst.name;  // normalized, no loops
        EXPECT_TRUE(std::binary_search(graph_sorted.begin(),
                                       graph_sorted.end(), e))
            << inst.name << " fabricated edge " << e.u << "-" << e.v;
        seen.push_back(e);
      }
      // One copy per distinct pair, in canonical order.
      EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end())) << inst.name;
      EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
          << inst.name;
      // P1 implies every touched vertex stays strictly below beta (its
      // H-neighbor contributes at least 1 to the pair sum).
      const std::vector<std::size_t> deg = degrees_of(h);
      for (const Edge& e : h) {
        EXPECT_LT(deg[e.u], params.beta) << inst.name;
        EXPECT_LT(deg[e.v], params.beta) << inst.name;
      }
    }
  }
}

TEST(EdcsStructure, PureFunctionOfTheEdgeMultiset) {
  Rng rng(7);
  const EdgeList base = gnp(200, 10.0 / 200, rng);
  const EdcsParams params{.beta = 12, .lambda = 3};
  const EdgeList reference = build_edcs(base, params);

  // Reversed arrival order: same multiset, same EDCS, byte for byte.
  EdgeList reversed(base.num_vertices());
  for (std::size_t i = base.num_edges(); i-- > 0;) {
    reversed.add(base.edges()[i]);
  }
  const EdgeList from_reversed = build_edcs(reversed, params);
  ASSERT_EQ(reference.num_edges(), from_reversed.num_edges());
  EXPECT_TRUE(std::equal(reference.begin(), reference.end(),
                         from_reversed.begin()));

  // Parallel copies collapse: duplicating every edge changes nothing (the
  // invariants and the matching value live on distinct pairs).
  EdgeList doubled(base.num_vertices());
  for (const Edge& e : base) {
    doubled.add(e);
    doubled.add(e);
  }
  const EdgeList from_doubled = build_edcs(doubled, params);
  ASSERT_EQ(reference.num_edges(), from_doubled.num_edges());
  EXPECT_TRUE(
      std::equal(reference.begin(), reference.end(), from_doubled.begin()));
  EXPECT_TRUE(edcs_invariants_hold(doubled, from_doubled, params));
}

TEST(EdcsStructure, WarmScratchRebuildsIdentically) {
  // The MachineScratch-resident builder must agree with the scratch-free
  // one, and re-running on warm buffers (whose content is conversational
  // garbage from the prior call) must reproduce the result exactly.
  Rng rng(11);
  const EdcsParams params{.beta = 16, .lambda = 2};
  WorkspaceStats stats;
  MachineScratch scratch(&stats);
  for (int round = 0; round < 3; ++round) {
    const EdgeList piece = gnp(150, 12.0 / 150, rng);
    const EdgeList cold = build_edcs(piece, params);
    const EdgeList warm = build_edcs(piece, params, &scratch);
    ASSERT_EQ(cold.num_edges(), warm.num_edges());
    EXPECT_TRUE(std::equal(cold.begin(), cold.end(), warm.begin()));
  }
}

TEST(EdcsStructure, SparsePiecesShipWhole) {
  // When every degree sum stays below beta - lambda, P2 forces H = G — the
  // regime the trap-family quality argument rests on (low-degree forests
  // ship entire pieces, so the union is the whole graph).
  const EdgeList forest = crown_forest(10, 3);  // degrees <= 3
  const EdcsParams params{.beta = 16, .lambda = 2};
  const EdgeList h = build_edcs(forest, params);
  EXPECT_EQ(h.num_edges(), forest.num_edges());
}

TEST(EdcsStructure, InvariantOracleRejectsViolations) {
  // P1 violation: a star whose center exceeds beta with its leaves.
  const EdgeList star_graph = star(8);  // center degree 7
  const EdcsParams tight{.beta = 4, .lambda = 1};
  EXPECT_FALSE(edcs_invariants_hold(star_graph, star_graph, tight));
  // P2 violation: an empty H against a graph with an edge.
  const EdgeList p = path(4);
  EXPECT_FALSE(edcs_invariants_hold(p, EdgeList(p.num_vertices()), tight));
  // Not a subgraph: H contains an edge G lacks.
  EdgeList h(4);
  h.add(Edge{0, 2});
  EdgeList g(4);
  g.add(Edge{0, 1});
  g.add(Edge{0, 2});
  EdgeList not_subgraph(4);
  not_subgraph.add(Edge{1, 3});
  EXPECT_FALSE(edcs_invariants_hold(g, not_subgraph, tight));
}

TEST(EdcsStructure, CombinedSolutionIsValidAcrossTheGrid) {
  for (std::uint64_t seed : kSeeds) {
    for (const Instance& inst : instance_grid(seed)) {
      const std::size_t opt =
          maximum_matching_size(inst.edges, inst.left_size);
      MpcEngineConfig config;
      config.mpc.num_machines = 4;
      config.mpc.memory_words = std::uint64_t{1} << 40;
      config.max_rounds = 8;
      EdcsRoundsConfig edcs;
      Rng rng(seed);
      const EdcsMpcResult result = run_matching_rounds_edcs(
          inst.edges, config, edcs, inst.left_size, rng);
      EXPECT_TRUE(result.matching.valid()) << inst.name;
      EXPECT_TRUE(result.matching.subset_of(inst.edges)) << inst.name;
      EXPECT_LE(result.matching.size(), opt) << inst.name;
      // The combiner always ends certified when the round budget is
      // generous (finish_maximal closes any gap), and the certificate means
      // maximal-in-G — which makes the endpoint cover feasible.
      EXPECT_TRUE(result.certified) << inst.name;
      EXPECT_EQ(result.certified_ratio, 2.0) << inst.name;
      EXPECT_TRUE(result.matching.maximal_in(inst.edges)) << inst.name;
      EXPECT_TRUE(result.cover.covers(inst.edges)) << inst.name;
      EXPECT_EQ(result.cover.size(), 2 * result.matching.size()) << inst.name;
      if (opt > 0) {
        // The deterministic sandwich the certificate promises, in integers.
        EXPECT_GE(2 * result.matching.size(), opt) << inst.name;
        EXPECT_GE(result.cover.size(), opt) << inst.name;
        EXPECT_LE(result.cover.size(), 2 * opt) << inst.name;
      }
    }
  }
}

}  // namespace
}  // namespace rcc
