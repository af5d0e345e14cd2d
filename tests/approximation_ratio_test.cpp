// Exact-oracle approximation harness (label: property).
//
// Every matching entry point runs on a generator x seed grid and its
// realized size is compared against the exact optimum — Hopcroft-Karp on
// bipartition-tagged instances, Edmonds' blossom on general ones:
//
//   * the single-round coreset protocol stays within a pinned constant
//     factor (the Theorem 1 O(1) regime; factor 3 holds with slack on this
//     deterministic grid),
//   * the greedy multi-round combiner runs to its fixed point, which is a
//     maximal matching: certified factor 2, never past maximality,
//   * on the p4-forest and crown-forest families the greedy folds stay
//     strictly below the optimum: the maximum-coreset fold in one round at
//     every k and on crowns even after 64 rounds, and the natural-greedy
//     baseline (maximal-matching coresets folded greedily — the Section 1.2
//     coreset the paper rejects) even with 64 rounds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "coreset/matching_coresets.hpp"
#include "graph/generators.hpp"
#include "matching/blossom.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "mpc/coreset_mpc.hpp"

namespace rcc {
namespace {

struct Instance {
  std::string name;
  EdgeList edges;
  VertexId left_size;  // nonzero = known bipartition boundary
};

/// Disjoint P4s presented middle-edge-first: a piece-local solver that
/// breaks ties by scan order commits to middle edges, the trap that strands
/// both outer endpoints of a path.
EdgeList p4_forest_middle_first(VertexId paths) {
  EdgeList edges(4 * paths);
  for (VertexId i = 0; i < paths; ++i) {
    edges.add(4 * i + 1, 4 * i + 2);
    edges.add(4 * i, 4 * i + 1);
    edges.add(4 * i + 2, 4 * i + 3);
  }
  return edges;
}

std::vector<Instance> instance_grid(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Instance> instances;
  instances.push_back({"empty", EdgeList(40), 0});
  instances.push_back({"gnp-sparse", gnp(300, 4.0 / 300, rng), 0});
  instances.push_back({"gnp-dense", gnp(120, 0.2, rng), 0});
  instances.push_back({"bipartite", random_bipartite(80, 100, 0.08, rng), 80});
  instances.push_back(
      {"left-regular", left_regular_bipartite(60, 60, 3, rng), 60});
  instances.push_back({"star-forest", star_forest(12, 15), 0});
  instances.push_back({"path", path(150), 0});
  instances.push_back({"cycle", cycle(101), 0});
  instances.push_back(
      {"perfect-matching", random_perfect_matching(50, rng), 50});
  const HubGadget hub = hub_gadget(64, 8);
  instances.push_back({"hub-gadget", hub.edges, hub.left_size});
  instances.push_back({"p4-forest", p4_forest_middle_first(60), 0});
  instances.push_back({"crown", crown(10), 10});
  instances.push_back({"crown-forest", crown_forest(20, 3), 0});
  return instances;
}

constexpr std::uint64_t kSeeds[] = {101, 202, 303};

/// The exact oracle of the harness: HK when a bipartition is known, blossom
/// otherwise (never the dispatcher, so the oracle choice is explicit).
std::size_t exact_optimum(const Instance& inst) {
  if (inst.left_size > 0) {
    return hopcroft_karp(bipartite_graph(inst.edges, inst.left_size)).size();
  }
  return blossom_maximum_matching(general_graph(inst.edges)).size();
}

MpcEngineConfig engine_config(const EdgeList& graph, std::size_t max_rounds) {
  MpcEngineConfig config;
  config.mpc = MpcConfig::paper_default(graph.num_vertices());
  config.max_rounds = max_rounds;
  return config;
}

/// The natural-greedy baseline: maximal-matching coresets (input-order
/// scan) folded greedily on the same executor — "folding machine matchings
/// greedily", with nothing to ever undo a committed edge.
Matching natural_greedy_rounds(const EdgeList& graph, std::size_t max_rounds,
                               Rng& rng) {
  const MaximalMatchingCoreset coreset(GreedyOrder::kGiven);
  Matching matched(graph.num_vertices());
  const auto build = [&](EdgeSpan piece, const PartitionContext& ctx,
                         Rng& machine_rng) {
    return coreset.build(piece, ctx, machine_rng);
  };
  const auto account = [](const EdgeList& summary) {
    return MessageSize{summary.num_edges(), 0};
  };
  struct GreedyFold {
    Matching& matched;
    void absorb(EdgeList& s, std::size_t, MpcRoundContext&) {
      greedy_extend(matched, s);
    }
    EdgeList finish(std::vector<EdgeList>&, MpcRoundContext& ctx, Rng&) {
      return ctx.active_edges().filter([&](const Edge& e) {
        return !matched.is_matched(e.u) && !matched.is_matched(e.v);
      });
    }
  } fold{matched};
  run_mpc_rounds(graph, engine_config(graph, max_rounds), 0, rng, nullptr,
                 build, account, fold);
  return matched;
}

void expect_valid(const Matching& m, const Instance& inst, std::size_t opt,
                  const std::string& what) {
  EXPECT_TRUE(m.valid()) << what << " on " << inst.name;
  EXPECT_TRUE(m.subset_of(inst.edges)) << what << " on " << inst.name;
  EXPECT_LE(m.size(), opt) << what << " on " << inst.name;
}

TEST(ApproximationRatio, SingleRoundProtocolStaysWithinPinnedConstant) {
  for (std::uint64_t seed : kSeeds) {
    for (const Instance& inst : instance_grid(seed)) {
      const std::size_t opt = exact_optimum(inst);
      Rng rng(seed);
      const CoresetMpcMatchingResult single = coreset_mpc_matching_rounds(
          inst.edges, engine_config(inst.edges, 1), inst.left_size, rng);
      expect_valid(single.matching, inst, opt, "single-round");
      // Theorem 1's O(1): factor 3 holds with slack on this pinned grid.
      EXPECT_GE(3 * single.matching.size(), opt) << inst.name
                                                 << " seed=" << seed;
    }
  }
}

TEST(ApproximationRatio, GreedyMultiRoundReachesItsMaximalityCertificate) {
  for (std::uint64_t seed : kSeeds) {
    for (const Instance& inst : instance_grid(seed)) {
      const std::size_t opt = exact_optimum(inst);
      Rng rng(seed);
      const CoresetMpcMatchingResult greedy = coreset_mpc_matching_rounds(
          inst.edges, engine_config(inst.edges, 64), inst.left_size, rng);
      expect_valid(greedy.matching, inst, opt, "greedy-rounds");
      // The greedy fold's fixed point is a maximal matching of G: its
      // certificate is the factor-2 bound, and 64 rounds are enough for the
      // grid to reach it (the run early-stops well before the cap).
      EXPECT_TRUE(greedy.matching.maximal_in(inst.edges)) << inst.name;
      EXPECT_GE(2 * greedy.matching.size(), opt) << inst.name;
      EXPECT_LT(greedy.stats.engine_rounds, 64u) << inst.name;
    }
  }
}

TEST(ApproximationRatio, GreedyFoldsStayBelowTheOptimumOnTrapFamilies) {
  // On families whose components carry a stranding trap — P4s presented
  // middle-first, crown(3) components with the missing diagonal — a fold
  // that commits machine matchings greedily loses components it can never
  // recover.
  struct Family {
    const char* name;
    EdgeList edges;
  };
  std::vector<Family> families;
  families.push_back({"p4-forest", p4_forest_middle_first(100)});
  families.push_back({"crown-forest", crown_forest(40, 3)});
  for (const Family& family : families) {
    const Instance inst{family.name, family.edges, 0};
    const std::size_t opt = exact_optimum(inst);
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
      // The composable-coreset setting proper — ONE round, summaries only:
      // at every cluster size the maximum-coreset fold strands components.
      for (std::size_t k : {2u, 4u, 8u}) {
        MpcEngineConfig config;
        config.mpc.num_machines = k;
        config.mpc.memory_words = std::uint64_t{1} << 40;
        config.max_rounds = 1;
        Rng coreset_rng(seed);
        const CoresetMpcMatchingResult coreset_greedy =
            coreset_mpc_matching_rounds(family.edges, config, 0, coreset_rng);
        EXPECT_LT(coreset_greedy.matching.size(), opt)
            << family.name << " seed=" << seed << " k=" << k;
      }
      // The natural-greedy baseline of Section 1.2, even with a generous
      // round budget (nothing ever undoes a committed middle edge).
      Rng greedy_rng(seed);
      const Matching greedy =
          natural_greedy_rounds(family.edges, 64, greedy_rng);
      EXPECT_LT(greedy.size(), opt) << family.name << " seed=" << seed;
    }
  }
  // Round iteration does not close the crown gap for the maximum-coreset
  // fold: a crown component that lost two same-class edges on the machines
  // is matched 2-of-3 with no surviving edge to fix it, so even 64 rounds at
  // k = 4 stay strictly below the optimum.
  const EdgeList crowns = crown_forest(40, 3);
  const std::size_t crown_opt =
      exact_optimum(Instance{"crown-forest", crowns, 0});
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    MpcEngineConfig config;
    config.mpc.num_machines = 4;
    config.mpc.memory_words = std::uint64_t{1} << 40;
    config.max_rounds = 64;
    Rng coreset_rng(seed);
    const CoresetMpcMatchingResult coreset_greedy =
        coreset_mpc_matching_rounds(crowns, config, 0, coreset_rng);
    EXPECT_LT(coreset_greedy.matching.size(), crown_opt) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace rcc
