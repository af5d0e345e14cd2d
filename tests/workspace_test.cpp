// Round-persistent workspace suite: epoch-mark semantics, the per-round
// zero-allocation discipline of run_mpc_rounds, and seed-for-seed
// differentials proving the flat hot-path rewrites are bit-identical to the
// hash-based implementations they replaced (the references are re-implemented
// here, hash containers and all, exactly as the pre-workspace code had them).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "coreset/weighted_coreset.hpp"
#include "evidence/coreset/kernel.hpp"
#include "graph/generators.hpp"
#include "matching/blossom.hpp"
#include "matching/greedy.hpp"
#include "matching/matching.hpp"
#include "matching/max_matching.hpp"
#include "mpc/coreset_mpc.hpp"
#include "mpc/filtering_mpc.hpp"
#include "mpc/mpc_engine.hpp"
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
  instances.push_back({"gnp-sparse", gnp(300, 4.0 / 300, rng), 0});
  instances.push_back({"gnp-dense", gnp(120, 0.2, rng), 0});
  instances.push_back({"bipartite", random_bipartite(80, 100, 0.08, rng), 80});
  instances.push_back({"star-forest", star_forest(12, 15), 0});
  instances.push_back({"path", path(150), 0});
  instances.push_back({"cycle", cycle(101), 0});
  instances.push_back({"crown-forest", crown_forest(12, 4), 0});
  return instances;
}

constexpr std::uint64_t kSeeds[] = {101, 202, 303};

// ---------------------------------------------------------------------------
// Epoch-stamped containers.

TEST(EpochMarks, SetUnsetTestAcrossEpochs) {
  EpochMarks marks;
  marks.reset(8);
  EXPECT_FALSE(marks.test(3));
  marks.set(3);
  marks.set(5);
  EXPECT_TRUE(marks.test(3));
  EXPECT_TRUE(marks.test(5));
  marks.unset(3);
  EXPECT_FALSE(marks.test(3));
  EXPECT_TRUE(marks.test(5));
  marks.reset(8);  // epoch bump: everything cleared in O(1)
  for (std::size_t v = 0; v < 8; ++v) EXPECT_FALSE(marks.test(v));
  marks.set(0);
  marks.reset(16);  // growth keeps semantics
  EXPECT_FALSE(marks.test(0));
  EXPECT_FALSE(marks.test(15));
}

TEST(WorkspaceStats, CountsOnlyGrowth) {
  ProtocolWorkspace ws;
  ws.ensure_machines(2);
  MachineScratch& m0 = ws.machine(0);
  const std::uint64_t after_setup = ws.counters().allocations;
  m0.vertex_marks(100);
  const std::uint64_t grown = ws.counters().allocations;
  EXPECT_GT(grown, after_setup);
  m0.vertex_marks(100);  // same size: no growth
  m0.vertex_marks(50);   // smaller: no growth
  EXPECT_EQ(ws.counters().allocations, grown);
  m0.vertex_marks(200);  // larger: growth
  EXPECT_GT(ws.counters().allocations, grown);
}

// ---------------------------------------------------------------------------
// Allocation discipline: steady-state rounds of the executor perform zero
// workspace allocations (the per-round delta is recorded in each
// MpcRoundReport). Round 0 warms the buffers; every later round reuses them.

MpcEngineConfig roomy_config(std::size_t k, std::size_t rounds) {
  MpcEngineConfig config;
  config.mpc.num_machines = k;
  config.mpc.memory_words = std::uint64_t{1} << 40;
  config.max_rounds = rounds;
  return config;
}

void expect_steady_state_rounds_allocation_free(const MpcExecutionStats& stats,
                                                const std::string& what,
                                                std::size_t first_steady = 1) {
  ASSERT_GE(stats.per_round.size(), 1u) << what;
  for (std::size_t r = first_steady; r < stats.per_round.size(); ++r) {
    EXPECT_EQ(stats.per_round[r].workspace_allocations, 0u)
        << what << " round " << r << " grew workspace buffers";
  }
}

TEST(AllocationDiscipline, MatchingVcAndFilteringRoundsStopAllocatingAfterRound0) {
  for (std::uint64_t seed : kSeeds) {
    for (const Instance& inst : instance_grid(seed)) {
      if (inst.edges.empty()) continue;
      {
        Rng rng(seed);
        ProtocolWorkspace ws;
        const auto result = coreset_mpc_matching_rounds(
            inst.edges, roomy_config(4, 4), inst.left_size, rng, nullptr, &ws);
        expect_steady_state_rounds_allocation_free(result.stats,
                                                   "matching/" + inst.name);
      }
      {
        Rng rng(seed);
        ProtocolWorkspace ws;
        const auto result = coreset_mpc_vertex_cover_rounds(
            inst.edges, roomy_config(4, 4), rng, nullptr, &ws);
        expect_steady_state_rounds_allocation_free(result.stats,
                                                   "vc/" + inst.name);
      }
      {
        Rng rng(seed);
        ProtocolWorkspace ws;
        MpcEngineConfig config = roomy_config(4, 8);
        config.mpc.memory_words =
            std::max<std::uint64_t>(64, inst.edges.num_edges());
        const auto result =
            filtering_mpc_rounds(inst.edges, config, rng, nullptr, &ws);
        expect_steady_state_rounds_allocation_free(result.stats,
                                                   "filtering/" + inst.name);
      }
    }
  }
}

TEST(AllocationDiscipline, SecondRunOnWarmWorkspaceAllocatesNothing) {
  // Cross-run reuse: a server keeping one workspace alive pays the warm-up
  // once; a second identical run must not grow any workspace buffer, round
  // 0 included.
  Rng gen(7);
  const EdgeList graph = gnp(400, 6.0 / 400, gen);
  ProtocolWorkspace ws;
  for (int run = 0; run < 2; ++run) {
    Rng rng(99);
    const std::uint64_t before = ws.counters().allocations;
    const auto result = coreset_mpc_matching_rounds(graph, roomy_config(4, 3),
                                                    0, rng, nullptr, &ws);
    if (run == 1) {
      EXPECT_EQ(ws.counters().allocations, before)
          << "second run on a warm workspace grew buffers";
    }
    EXPECT_TRUE(result.matching.valid());
  }
}

// ---------------------------------------------------------------------------
// Differentials: flat rewrites vs the hash-based references they replaced.

/// Reference subset_of exactly as matching.cpp had it (hash set of edges).
bool subset_of_reference(const Matching& m, EdgeSpan graph_edges) {
  std::unordered_set<Edge, EdgeHash> present(graph_edges.begin(),
                                             graph_edges.end());
  for (const Edge& e : m.to_edge_list()) {
    if (!present.count(e)) return false;
  }
  return true;
}

TEST(FlatRewriteDifferential, SubsetOfMatchesHashReference) {
  for (std::uint64_t seed : kSeeds) {
    for (const Instance& inst : instance_grid(seed)) {
      Rng rng(seed);
      const Matching inside =
          greedy_maximal_matching(inst.edges, GreedyOrder::kRandom, rng);
      EXPECT_EQ(inside.subset_of(inst.edges),
                subset_of_reference(inside, inst.edges))
          << inst.name;
      EXPECT_TRUE(inside.subset_of(inst.edges)) << inst.name;

      // A fabricated matching over a denser universe: edges mostly absent.
      Matching outside(inst.edges.num_vertices());
      if (inst.edges.num_vertices() >= 4) {
        outside.match(0, inst.edges.num_vertices() - 1);
        EXPECT_EQ(outside.subset_of(inst.edges),
                  subset_of_reference(outside, inst.edges))
            << inst.name;
      }
    }
  }
}

/// Reference Crouch-Stubbs weight lookup exactly as weighted_coreset.cpp had
/// it (unordered_map with max-merge).
WeightedCoresetOutput crouch_stubbs_reference(WeightedEdgeSpan piece,
                                              const PartitionContext& ctx,
                                              double class_base) {
  WeightedCoresetOutput out;
  out.edges.num_vertices = piece.num_vertices();
  std::unordered_map<Edge, double, EdgeHash> weight_of;
  weight_of.reserve(piece.num_edges() * 2);
  for (const WeightedEdge& we : piece) {
    auto [it, inserted] = weight_of.try_emplace(we.edge(), we.weight);
    if (!inserted && we.weight > it->second) it->second = we.weight;
  }
  const WeightClasses wc = split_weight_classes(piece, class_base);
  for (const EdgeList& cls : wc.classes) {
    if (cls.empty()) continue;
    EdgeList dedup_cls = cls;
    dedup_cls.dedup();
    const Matching m = maximum_matching(dedup_cls, ctx.left_size);
    for (const Edge& e : m.to_edge_list()) {
      out.edges.add(e.u, e.v, weight_of.at(e));
    }
  }
  return out;
}

TEST(FlatRewriteDifferential, WeightedCoresetMatchesHashReference) {
  for (std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    WeightedEdgeList graph;
    graph.num_vertices = 120;
    for (int i = 0; i < 600; ++i) {
      const auto u = static_cast<VertexId>(rng.next_below(120));
      const auto v = static_cast<VertexId>(rng.next_below(120));
      if (u == v) continue;
      graph.add(u, v, 0.5 + rng.uniform01() * 64.0);
    }
    const PartitionContext ctx{graph.num_vertices, 1, 0, 0};
    const WeightedCoresetOutput flat =
        crouch_stubbs_coreset(WeightedEdgeSpan(graph), ctx, 2.0);
    const WeightedCoresetOutput reference =
        crouch_stubbs_reference(WeightedEdgeSpan(graph), ctx, 2.0);
    ASSERT_EQ(flat.edges.edges.size(), reference.edges.edges.size());
    for (std::size_t i = 0; i < flat.edges.edges.size(); ++i) {
      EXPECT_EQ(flat.edges.edges[i].u, reference.edges.edges[i].u);
      EXPECT_EQ(flat.edges.edges[i].v, reference.edges.edges[i].v);
      EXPECT_EQ(flat.edges.edges[i].weight, reference.edges.edges[i].weight);
    }
  }
}

/// Reference greedy-by-key exactly as greedy.cpp had it: std::function key
/// re-evaluated inside every stable_sort comparison.
Matching greedy_by_reference(EdgeSpan edges,
                             const std::function<double(const Edge&)>& key) {
  std::vector<std::size_t> idx(edges.num_edges());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return key(edges[a]) < key(edges[b]);
  });
  Matching m(edges.num_vertices());
  for (std::size_t i : idx) {
    const Edge& e = edges[i];
    if (!m.is_matched(e.u) && !m.is_matched(e.v)) m.match(e.u, e.v);
  }
  return m;
}

TEST(FlatRewriteDifferential, GreedyByPrecomputedKeysMatchesFunctionReference) {
  const auto keys = {
      std::function<double(const Edge&)>(
          [](const Edge& e) { return static_cast<double>(e.u) + e.v; }),
      std::function<double(const Edge&)>(
          [](const Edge& e) { return -static_cast<double>(e.v); }),
      std::function<double(const Edge&)>(
          [](const Edge& e) { return static_cast<double>(e.u % 3); }),  // ties
  };
  for (std::uint64_t seed : kSeeds) {
    for (const Instance& inst : instance_grid(seed)) {
      for (const auto& key : keys) {
        const Matching flat = greedy_maximal_matching_by(
            EdgeSpan(inst.edges), key);
        const Matching reference = greedy_by_reference(inst.edges, key);
        ASSERT_EQ(flat.size(), reference.size()) << inst.name;
        for (VertexId v = 0; v < inst.edges.num_vertices(); ++v) {
          EXPECT_EQ(flat.mate(v), reference.mate(v)) << inst.name;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scratch-vs-fresh differentials: every scratch-aware kernel must produce
// bit-identical results with a (repeatedly reused) workspace and without.

TEST(ScratchDifferential, KernelsAreIdenticalWithAndWithoutScratch) {
  ProtocolWorkspace ws;
  ws.ensure_machines(1);
  MachineScratch& scratch = ws.machine(0);
  for (std::uint64_t seed : kSeeds) {
    for (const Instance& inst : instance_grid(seed)) {
      // vertex_cap_kernel (the scratch is deliberately reused across grid
      // points — stale contents must never leak into a result).
      for (VertexId cap : {1u, 2u, 5u}) {
        const EdgeList fresh = vertex_cap_kernel(inst.edges, cap);
        const EdgeList reused = vertex_cap_kernel(inst.edges, cap, &scratch);
        ASSERT_EQ(fresh.num_edges(), reused.num_edges()) << inst.name;
        for (std::size_t i = 0; i < fresh.num_edges(); ++i) {
          EXPECT_EQ(fresh[i], reused[i]) << inst.name;
        }
      }

      // greedy orders.
      Rng rng_a(seed);
      Rng rng_b(seed);
      const Matching ga =
          greedy_maximal_matching(inst.edges, GreedyOrder::kRandom, rng_a);
      const Matching gb = greedy_maximal_matching(
          inst.edges, GreedyOrder::kRandom, rng_b, &scratch);
      ASSERT_EQ(ga.size(), gb.size()) << inst.name;
      for (VertexId v = 0; v < inst.edges.num_vertices(); ++v) {
        EXPECT_EQ(ga.mate(v), gb.mate(v)) << inst.name;
      }

      // maximum matching (HK and blossom dispatch).
      const Matching fresh_max = maximum_matching(inst.edges, inst.left_size);
      const Matching reused_max =
          maximum_matching(inst.edges, inst.left_size, &scratch);
      ASSERT_EQ(fresh_max.size(), reused_max.size()) << inst.name;
      for (VertexId v = 0; v < inst.edges.num_vertices(); ++v) {
        EXPECT_EQ(fresh_max.mate(v), reused_max.mate(v)) << inst.name;
      }
    }
  }
}

TEST(ScratchDifferential, BlossomPruningIsExact) {
  // Hungarian-tree pruning must not change the matching SIZE (it only skips
  // provably dead exploration; the edges chosen may differ).
  for (std::uint64_t seed : kSeeds) {
    for (const Instance& inst : instance_grid(seed)) {
      const Graph g((EdgeSpan(inst.edges)));
      const Matching pruned =
          blossom_maximum_matching(g, nullptr, /*prune_hungarian_trees=*/true);
      const Matching exhaustive = blossom_maximum_matching(
          g, nullptr, /*prune_hungarian_trees=*/false);
      EXPECT_EQ(pruned.size(), exhaustive.size()) << inst.name;
      EXPECT_TRUE(pruned.valid()) << inst.name;
      EXPECT_TRUE(exhaustive.valid()) << inst.name;
      EXPECT_TRUE(pruned.subset_of(inst.edges)) << inst.name;
    }
  }
}

// ---------------------------------------------------------------------------
// Executor-level differential: a run with an external workspace must be
// seed-for-seed identical to a run with the internal one (and to a second
// run reusing the warmed workspace).

TEST(WorkspaceDifferential, ExecutorResultsIndependentOfWorkspaceReuse) {
  for (std::uint64_t seed : kSeeds) {
    for (const Instance& inst : instance_grid(seed)) {
      MpcEngineConfig config = roomy_config(4, 3);
      Rng rng_internal(seed);
      const auto internal = coreset_mpc_matching_rounds(
          inst.edges, config, inst.left_size, rng_internal);

      ProtocolWorkspace ws;
      for (int run = 0; run < 2; ++run) {  // second run = warm buffers
        Rng rng(seed);
        const auto external = coreset_mpc_matching_rounds(
            inst.edges, config, inst.left_size, rng, nullptr, &ws);
        ASSERT_EQ(external.matching.size(), internal.matching.size())
            << inst.name << " run " << run;
        for (VertexId v = 0; v < inst.edges.num_vertices(); ++v) {
          EXPECT_EQ(external.matching.mate(v), internal.matching.mate(v))
              << inst.name << " run " << run;
        }
        EXPECT_EQ(external.stats.engine_rounds, internal.stats.engine_rounds)
            << inst.name;
        EXPECT_EQ(external.stats.total_comm_words,
                  internal.stats.total_comm_words)
            << inst.name;
      }
    }
  }
}

}  // namespace
}  // namespace rcc
