// Randomized invariant suite over a generator x seed grid.
//
// Every protocol entry point — the simultaneous matching/VC protocols, the
// named paper protocols, and the MPC simulations — must satisfy, on every
// instance of the grid:
//
//   * every returned matching is a valid vertex-disjoint subset of G and
//     maximal in the summary union it was solved on (maximal in G itself
//     for the algorithms that guarantee it),
//   * every returned vertex cover covers all edges of G,
//   * the LP-duality sandwich, BOTH directions: any returned matching is at
//     most the maximum matching nu(G), any feasible cover has at least
//     nu(G) vertices AND at most 2 nu(G) (every composition here closes
//     with an endpoint cover of a maximal matching of what the fixed
//     vertices leave over, and the fixed vertices are covered by the same
//     budget on this grid — pinned empirically, worst realized ratio 2.0),
//     and the maximal-matching pairs satisfy |M| <= |V(M)| <= 2|M|.
//
// The certified maximum matching solve that machines and the coordinator
// run is pinned here too: its certificate only decides when the exact
// finish stops, so it must return, mate for mate, the Karp-Sipser seed
// finished with no bound at all.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "coreset/matching_coresets.hpp"
#include "coreset/vc_coreset.hpp"
#include "distributed/protocol.hpp"
#include "distributed/protocols.hpp"
#include "graph/generators.hpp"
#include "matching/blossom.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/max_matching.hpp"
#include "matching/warm_start.hpp"
#include "mpc/coreset_mpc.hpp"
#include "mpc/filtering_mpc.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"
#include "vertex_cover/approx.hpp"

namespace rcc {
namespace {

struct Instance {
  std::string name;
  EdgeList edges;
  VertexId left_size;  // nonzero = known bipartition boundary
};

std::vector<Instance> instance_grid(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Instance> instances;
  instances.push_back({"empty", EdgeList(40), 0});
  instances.push_back({"gnp-sparse", gnp(300, 4.0 / 300, rng), 0});
  instances.push_back({"gnp-dense", gnp(120, 0.2, rng), 0});
  instances.push_back(
      {"bipartite", random_bipartite(80, 100, 0.08, rng), 80});
  instances.push_back(
      {"left-regular", left_regular_bipartite(60, 60, 3, rng), 60});
  instances.push_back({"star-forest", star_forest(12, 15), 0});
  instances.push_back({"path", path(150), 0});
  instances.push_back({"cycle", cycle(101), 0});
  instances.push_back(
      {"perfect-matching", random_perfect_matching(50, rng), 50});
  const HubGadget hub = hub_gadget(64, 8);
  instances.push_back({"hub-gadget", hub.edges, hub.left_size});
  return instances;
}

constexpr std::size_t kMachines = 4;
constexpr std::uint64_t kSeeds[] = {101, 202, 303};

/// A memory budget no instance of the grid can overflow: the MPC invariants
/// here are about solution correctness, not the cap.
MpcConfig roomy_mpc_config() {
  MpcConfig cfg;
  cfg.num_machines = kMachines;
  cfg.memory_words = std::uint64_t{1} << 40;
  return cfg;
}

void expect_valid_matching(const Matching& m, const Instance& inst,
                           std::size_t opt, const std::string& what) {
  EXPECT_TRUE(m.valid()) << what << " on " << inst.name;
  EXPECT_TRUE(m.subset_of(inst.edges)) << what << " on " << inst.name;
  EXPECT_LE(m.size(), opt) << what << " on " << inst.name;
}

void expect_feasible_cover(const VertexCover& cover, const Instance& inst,
                           std::size_t opt, const std::string& what) {
  EXPECT_TRUE(cover.covers(inst.edges)) << what << " on " << inst.name;
  // Weak LP duality: any feasible cover is at least the maximum matching.
  EXPECT_GE(cover.size(), opt) << what << " on " << inst.name;
  // ... and the sandwich closes from above: no cover on this grid exceeds
  // twice the maximum matching (the endpoint-cover bound |V(M)| <= 2|M| <=
  // 2 nu, extended to the peeling compositions empirically — every grid
  // point is deterministic, so this is a pin, not a theorem).
  EXPECT_LE(cover.size(), 2 * opt) << what << " on " << inst.name;
}

TEST(ProtocolProperties, MatchingEntryPointsReturnValidMatchings) {
  const MaximumMatchingCoreset maximum;
  const MaximalMatchingCoreset maximal;
  for (std::uint64_t seed : kSeeds) {
    for (const Instance& inst : instance_grid(seed)) {
      const std::size_t opt =
          maximum_matching_size(inst.edges, inst.left_size);
      struct Run {
        std::string name;
        MatchingProtocolResult result;
      };
      std::vector<Run> runs;
      Rng rng(seed);
      runs.push_back({"max-coreset/max-solver",
                      run_matching_protocol(inst.edges, kMachines, maximum,
                                            ComposeSolver::kMaximum,
                                            inst.left_size, rng)});
      runs.push_back({"max-coreset/greedy-solver",
                      run_matching_protocol(inst.edges, kMachines, maximum,
                                            ComposeSolver::kGreedy,
                                            inst.left_size, rng)});
      runs.push_back({"maximal-coreset",
                      run_matching_protocol(inst.edges, kMachines, maximal,
                                            ComposeSolver::kGreedy,
                                            inst.left_size, rng)});
      runs.push_back(
          {"named-coreset-protocol",
           coreset_matching_protocol(inst.edges, kMachines, inst.left_size,
                                     rng)});
      runs.push_back({"subsampled-protocol",
                      subsampled_matching_protocol(inst.edges, kMachines,
                                                   /*alpha=*/2.0,
                                                   inst.left_size, rng)});
      for (const Run& run : runs) {
        expect_valid_matching(run.result.solution, inst, opt, run.name);
        // The coordinator solved exactly the union of the summaries, so the
        // matching must be maximal there (greedy and maximum solvers both).
        EXPECT_TRUE(run.result.solution.maximal_in(
            EdgeList::union_of(run.result.summaries)))
            << run.name << " on " << inst.name;
      }
    }
  }
}

TEST(ProtocolProperties, VertexCoverEntryPointsReturnFeasibleCovers) {
  const PeelingVcCoreset peeling;
  for (std::uint64_t seed : kSeeds) {
    for (const Instance& inst : instance_grid(seed)) {
      const std::size_t opt =
          maximum_matching_size(inst.edges, inst.left_size);
      Rng rng(seed);
      expect_feasible_cover(
          run_vc_protocol(inst.edges, kMachines, peeling, rng).solution, inst,
          opt, "run_vc_protocol");
      expect_feasible_cover(coreset_vc_protocol(inst.edges, kMachines, rng).solution,
                            inst, opt, "coreset_vc_protocol");
      expect_feasible_cover(
          grouped_vc_protocol(inst.edges, kMachines, /*alpha=*/8.0, rng).solution,
          inst, opt, "grouped_vc_protocol");
    }
  }
}

TEST(ProtocolProperties, MpcEntryPointsKeepTheInvariants) {
  for (std::uint64_t seed : kSeeds) {
    for (const Instance& inst : instance_grid(seed)) {
      const std::size_t opt =
          maximum_matching_size(inst.edges, inst.left_size);
      const MpcConfig cfg = roomy_mpc_config();
      for (bool random_input : {false, true}) {
        Rng rng(seed);
        const MpcEngineConfig one_round{.mpc = cfg,
                                        .max_rounds = 1,
                                        .input_already_random = random_input};
        const CoresetMpcMatchingResult m = coreset_mpc_matching_rounds(
            inst.edges, one_round, inst.left_size, rng);
        expect_valid_matching(m.matching, inst, opt, "one-round coreset MPC");
        const CoresetMpcVcResult c =
            coreset_mpc_vertex_cover_rounds(inst.edges, one_round, rng);
        expect_feasible_cover(c.cover, inst, opt, "one-round coreset MPC VC");
      }
    }
  }
}

TEST(ProtocolProperties, MultiRoundEntryPointsKeepTheInvariants) {
  for (std::uint64_t seed : kSeeds) {
    for (const Instance& inst : instance_grid(seed)) {
      const std::size_t opt =
          maximum_matching_size(inst.edges, inst.left_size);
      MpcEngineConfig config;
      config.mpc = roomy_mpc_config();
      config.max_rounds = 32;

      Rng greedy_rng(seed);
      const CoresetMpcMatchingResult greedy = coreset_mpc_matching_rounds(
          inst.edges, config, inst.left_size, greedy_rng);
      expect_valid_matching(greedy.matching, inst, opt,
                            "coreset_mpc_matching_rounds");
    }
  }
}

TEST(ProtocolProperties, FilteringSatisfiesTheDualitySandwich) {
  for (std::uint64_t seed : kSeeds) {
    for (const Instance& inst : instance_grid(seed)) {
      const std::size_t opt =
          maximum_matching_size(inst.edges, inst.left_size);
      Rng rng(seed);
      const FilteringMpcResult r = filtering_mpc_rounds(
          inst.edges, {.mpc = roomy_mpc_config(), .max_rounds = SIZE_MAX},
          rng);
      expect_valid_matching(r.maximal_matching, inst, opt, "filtering");
      EXPECT_TRUE(r.maximal_matching.maximal_in(inst.edges)) << inst.name;
      expect_feasible_cover(r.cover, inst, opt, "filtering-cover");
      // |M| <= |V(M)| <= 2|M|: the duality sandwich of a maximal matching
      // and its endpoint cover.
      EXPECT_LE(r.maximal_matching.size(), r.cover.size()) << inst.name;
      EXPECT_LE(r.cover.size(), 2 * r.maximal_matching.size()) << inst.name;
      // 2-approximation on both sides of the duality.
      EXPECT_GE(2 * r.maximal_matching.size(), opt) << inst.name;
      EXPECT_LE(r.cover.size(), 2 * opt) << inst.name;
    }
  }
}

TEST(ProtocolProperties, ThreadCountInvarianceOnTheFullGrid) {
  // The engine's determinism contract, pinned on the same generator x seed
  // grid as every other protocol invariant: a run with no pool, a one-thread
  // pool, and a four-thread pool is seed-for-seed identical — exact
  // solutions, word-exact communication, and the caller's RNG left at the
  // same stream position.
  ThreadPool one(1);
  ThreadPool four(4);
  for (std::uint64_t seed : kSeeds) {
    for (const Instance& inst : instance_grid(seed)) {
      Rng m_base_rng(seed);
      const MatchingProtocolResult m_base = coreset_matching_protocol(
          inst.edges, kMachines, inst.left_size, m_base_rng);
      EdgeList m_base_edges = m_base.solution.to_edge_list();
      m_base_edges.sort();
      Rng c_base_rng(seed);
      const VcProtocolResult c_base =
          coreset_vc_protocol(inst.edges, kMachines, c_base_rng);
      Rng g_base_rng(seed);
      const GroupedVcProtocolResult g_base = grouped_vc_protocol(
          inst.edges, kMachines, /*alpha=*/8.0, g_base_rng);

      for (ThreadPool* pool : {&one, &four}) {
        const std::string what = inst.name + " seed=" + std::to_string(seed) +
                                 " threads=" + std::to_string(pool->size());
        Rng m_rng(seed);
        const MatchingProtocolResult m = coreset_matching_protocol(
            inst.edges, kMachines, inst.left_size, m_rng, pool);
        EdgeList m_edges = m.solution.to_edge_list();
        m_edges.sort();
        EXPECT_EQ(m_base_edges.edges(), m_edges.edges()) << "matching " << what;
        EXPECT_EQ(m_base.comm.total_words(), m.comm.total_words()) << what;
        EXPECT_EQ(Rng(m_base_rng).next_u64(), m_rng.next_u64()) << what;

        Rng c_rng(seed);
        const VcProtocolResult c =
            coreset_vc_protocol(inst.edges, kMachines, c_rng, pool);
        EXPECT_EQ(c_base.solution.vertices(), c.solution.vertices())
            << "cover " << what;
        EXPECT_EQ(c_base.comm.total_words(), c.comm.total_words()) << what;
        EXPECT_EQ(Rng(c_base_rng).next_u64(), c_rng.next_u64()) << what;

        Rng g_rng(seed);
        const GroupedVcProtocolResult g = grouped_vc_protocol(
            inst.edges, kMachines, /*alpha=*/8.0, g_rng, pool);
        EXPECT_EQ(g_base.solution.vertices(), g.solution.vertices())
            << "grouped cover " << what;
        EXPECT_EQ(Rng(g_base_rng).next_u64(), g_rng.next_u64()) << what;
      }
    }
  }
}

TEST(ProtocolProperties, TwoApproximationCoverSandwich) {
  for (std::uint64_t seed : kSeeds) {
    for (const Instance& inst : instance_grid(seed)) {
      const std::size_t opt =
          maximum_matching_size(inst.edges, inst.left_size);
      Rng rng(seed);
      const VertexCover cover = vc_two_approximation(inst.edges, rng);
      expect_feasible_cover(cover, inst, opt, "vc_two_approximation");
      EXPECT_LE(cover.size(), 2 * opt) << inst.name;
    }
  }
}

/// A hub joined to one vertex of each of three disjoint triangles: the
/// whole graph is the Karp-Sipser core, whose count certifies 5 against a
/// maximum of 4.
EdgeList hub_with_triangles() {
  EdgeList el(10);
  for (VertexId t = 0; t < 3; ++t) {
    const VertexId o = 1 + 3 * t;
    el.add(o, o + 1);
    el.add(o + 1, o + 2);
    el.add(o + 2, o);
    el.add(0, o);
  }
  return el;
}

TEST(CertifiedSolveProperties, EqualsTheSeedFinishedWithoutABound) {
  // The grid's instances, sparse general multigraphs (every third edge
  // doubled, as in a union of machine matchings), tagged random bipartite
  // graphs, and the trap graphs: K_{2,4} and the hub, whose certificate is
  // not tight, and a crown forest.
  std::vector<Instance> instances;
  for (const std::uint64_t seed : kSeeds) {
    for (Instance& inst : instance_grid(seed)) instances.push_back(inst);
    Rng rng(seed);
    for (const std::uint64_t m : {200u, 300u, 450u, 700u}) {
      EdgeList el = gnm(300, m, rng);
      for (std::size_t i = 0; i < m; i += 3) el.add(el[i].u, el[i].v);
      instances.push_back({"gnm-multi", el, 0});
    }
    for (const double p : {0.01, 0.02, 0.04}) {
      instances.push_back(
          {"bipartite-sparse", random_bipartite(150, 120, p, rng), 150});
    }
  }
  instances.push_back({"K_{2,4}", complete_bipartite(2, 4), 2});
  instances.push_back({"K_{2,4} (general)", complete_bipartite(2, 4), 0});
  instances.push_back({"hub with triangles", hub_with_triangles(), 0});
  instances.push_back({"crown forest", crown_forest(8, 3), 0});

  MachineScratch scratch;
  for (const Instance& inst : instances) {
    const Graph g(inst.edges, bipartition_if(inst.left_size));
    Matching certified;
    certified_maximum_matching_into(certified, g, &scratch);

    Matching finished;
    karp_sipser_into(finished, g);
    if (g.is_bipartite_tagged()) {
      hopcroft_karp_into(finished, g, nullptr, &finished, kNoSizeBound);
    } else {
      blossom_maximum_matching_into(finished, g, nullptr,
                                    /*prune_hungarian_trees=*/true, &finished,
                                    kNoSizeBound);
    }
    ASSERT_EQ(certified.num_vertices(), finished.num_vertices()) << inst.name;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(certified.mate(v), finished.mate(v))
          << inst.name << ", vertex " << v;
    }
    EXPECT_EQ(certified.size(),
              maximum_matching_size(inst.edges, inst.left_size))
        << inst.name;
    EXPECT_TRUE(certified.subset_of(inst.edges)) << inst.name;
  }
}

}  // namespace
}  // namespace rcc
