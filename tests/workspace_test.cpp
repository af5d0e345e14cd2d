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

#include "coreset/kernel.hpp"
#include "coreset/weighted_coreset.hpp"
#include "graph/generators.hpp"
#include "graph/incremental_csr.hpp"
#include "matching/augmenting_paths.hpp"
#include "matching/blossom.hpp"
#include "matching/greedy.hpp"
#include "matching/matching.hpp"
#include "matching/max_matching.hpp"
#include "mpc/augmenting_rounds.hpp"
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

TEST(EpochMap, ValuesReadFreshPerEpoch) {
  EpochMap<VertexId> counts;
  counts.reset(4);
  EXPECT_EQ(counts.get(2), 0u);
  counts.ref(2) = 7;
  EXPECT_EQ(counts.get(2), 7u);
  counts.reset(4);
  EXPECT_EQ(counts.get(2), 0u);  // stale value invisible after the bump
  counts.ref(2) += 3;
  EXPECT_EQ(counts.get(2), 3u);
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

TEST(AllocationDiscipline, AugmentingRoundsAreWorkspaceAllocationFreeAfterRound0) {
  // The augmenting combiner recirculates every edge, so all five rounds do
  // full-size work — the strongest steady-state case on the pinned grid.
  for (std::uint64_t seed : kSeeds) {
    for (const Instance& inst : instance_grid(seed)) {
      if (inst.edges.empty()) continue;
      Rng rng(seed);
      ProtocolWorkspace ws;
      AugmentingRoundsConfig aug;
      aug.max_path_length = 5;
      MpcEngineConfig config = roomy_config(4, 5);
      config.early_stop = false;
      Matching matched(inst.edges.num_vertices());
      // Drive the executor directly so the external workspace is observable.
      const auto build = [&](EdgeSpan piece, const PartitionContext& ctx,
                             Rng&) {
        return find_augmenting_paths(piece, matched, aug.max_path_length,
                                     ctx.scratch);
      };
      const auto account = [](const std::vector<AugmentingPath>& paths) {
        std::uint64_t words = 0;
        for (const AugmentingPath& p : paths) words += p.words();
        return MessageSize{0, words};
      };
      struct Fold {
        Matching& matched;
        std::size_t max_len;
        void absorb(std::vector<AugmentingPath>&, std::size_t,
                    MpcRoundContext&) {}
        EdgeList finish(std::vector<std::vector<AugmentingPath>>& all,
                        MpcRoundContext& ctx, Rng&) {
          EpochMarks& touched = ctx.coordinator_scratch().vertex_marks(
              matched.num_vertices());
          std::size_t applied = 0;
          for (auto& batch : all) {
            for (const AugmentingPath& p : batch) {
              bool conflict = false;
              for (VertexId v : p.vertices) {
                conflict = conflict || touched.test(v);
              }
              if (conflict || !is_valid_augmenting_path(p, matched)) continue;
              for (VertexId v : p.vertices) touched.set(v);
              apply_augmenting_path(matched, p);
              ++applied;
            }
          }
          ctx.note_progress(applied + 1);  // never stall the executor
          ctx.survivors_out().assign(ctx.active_edges());
          return std::move(ctx.survivors_out());
        }
      } fold{matched, aug.max_path_length};
      const MpcExecutionStats stats =
          run_mpc_rounds(inst.edges, config, inst.left_size, rng, nullptr,
                         build, account, fold, &ws);
      EXPECT_EQ(stats.engine_rounds, 5u) << inst.name;
      expect_steady_state_rounds_allocation_free(stats,
                                                 "augmenting/" + inst.name);
    }
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

/// Reference validity check exactly as augmenting_paths.cpp had it.
bool valid_path_reference(const AugmentingPath& path, const Matching& matching) {
  const std::size_t len = path.vertices.size();
  if (len < 2 || len % 2 != 0) return false;
  const VertexId n = matching.num_vertices();
  std::unordered_set<VertexId> seen;
  for (VertexId v : path.vertices) {
    if (v >= n || !seen.insert(v).second) return false;
  }
  if (matching.is_matched(path.vertices.front()) ||
      matching.is_matched(path.vertices.back())) {
    return false;
  }
  for (std::size_t i = 0; i + 1 < len; ++i) {
    const VertexId a = path.vertices[i];
    const VertexId b = path.vertices[i + 1];
    if (i % 2 == 0) {
      if (matching.is_matched(a) && matching.mate(a) == b) return false;
    } else {
      if (!matching.is_matched(a) || matching.mate(a) != b) return false;
    }
  }
  return true;
}

bool valid_path_reference(const AugmentingPath& path, const Matching& matching,
                          EdgeSpan edges) {
  if (!valid_path_reference(path, matching)) return false;
  std::unordered_set<Edge, EdgeHash> present;
  present.reserve(edges.num_edges());
  for (const Edge& e : edges) present.insert(e);
  for (std::size_t i = 0; i + 1 < path.vertices.size(); i += 2) {
    if (!present.count(make_edge(path.vertices[i], path.vertices[i + 1]))) {
      return false;
    }
  }
  return true;
}

TEST(FlatRewriteDifferential, PathValidatorsMatchHashReference) {
  for (std::uint64_t seed : kSeeds) {
    for (const Instance& inst : instance_grid(seed)) {
      if (inst.edges.empty()) continue;
      Rng rng(seed);
      Matching m = greedy_maximal_matching(inst.edges, GreedyOrder::kRandom, rng);
      // Real candidate paths from the search...
      Matching partial(inst.edges.num_vertices());
      greedy_extend(partial, inst.edges.sample_edges(3, rng));
      const auto paths = find_augmenting_paths(inst.edges, partial, 5);
      for (const AugmentingPath& p : paths) {
        EXPECT_EQ(is_valid_augmenting_path(p, partial),
                  valid_path_reference(p, partial))
            << inst.name;
        EXPECT_EQ(is_valid_augmenting_path(p, partial, inst.edges),
                  valid_path_reference(p, partial, inst.edges))
            << inst.name;
      }
      // ...and malformed ones: repeats, matched endpoints, absent hops.
      std::vector<AugmentingPath> bad;
      bad.push_back(AugmentingPath{{0, 0}});
      bad.push_back(AugmentingPath{{0, 1, 2}});
      bad.push_back(AugmentingPath{{0, inst.edges.num_vertices() - 1}});
      if (m.size() > 0) {
        const Edge e = m.to_edge_list()[0];
        bad.push_back(AugmentingPath{{e.u, e.v}});
      }
      for (const AugmentingPath& p : bad) {
        EXPECT_EQ(is_valid_augmenting_path(p, m), valid_path_reference(p, m))
            << inst.name;
        EXPECT_EQ(is_valid_augmenting_path(p, m, inst.edges),
                  valid_path_reference(p, m, inst.edges))
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
      // find_augmenting_paths (the scratch is deliberately reused across
      // grid points — stale contents must never leak into a result).
      Matching partial(inst.edges.num_vertices());
      Rng rng(seed);
      greedy_extend(partial, inst.edges.sample_edges(4, rng));
      const auto fresh_paths = find_augmenting_paths(inst.edges, partial, 5);
      const auto scratch_paths =
          find_augmenting_paths(inst.edges, partial, 5, &scratch);
      ASSERT_EQ(fresh_paths.size(), scratch_paths.size()) << inst.name;
      for (std::size_t i = 0; i < fresh_paths.size(); ++i) {
        EXPECT_EQ(fresh_paths[i].vertices, scratch_paths[i].vertices)
            << inst.name;
      }

      // vertex_cap_kernel.
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

// ---------------------------------------------------------------------------
// Incremental CSR: the counting-sort build must be bit-identical to the
// sort-based reference it replaced, and the signature must let ensure()
// reuse in exactly the cases the contract promises.

/// Reference adjacency exactly as the pre-PR6 hot path had it: counting
/// scatter into a flat CSR followed by a per-row std::sort.
struct ReferenceCsr {
  std::vector<std::size_t> offsets;
  std::vector<VertexId> neighbors;

  explicit ReferenceCsr(EdgeSpan edges) {
    const std::size_t n = edges.num_vertices();
    offsets.assign(n + 1, 0);
    for (const Edge& e : edges) {
      ++offsets[e.u + 1];
      ++offsets[e.v + 1];
    }
    for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
    neighbors.resize(offsets[n]);
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const Edge& e : edges) {
      neighbors[cursor[e.u]++] = e.v;
      neighbors[cursor[e.v]++] = e.u;
    }
    for (std::size_t v = 0; v < n; ++v) {
      std::sort(neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
                neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
    }
  }
};

void expect_csr_equals_reference(const IncrementalCsr& csr,
                                 const ReferenceCsr& ref,
                                 const std::string& what) {
  const std::size_t n = ref.offsets.size() - 1;
  ASSERT_EQ(csr.num_vertices(), n) << what;
  ASSERT_EQ(csr.num_arcs(), ref.neighbors.size()) << what;
  for (std::size_t v = 0; v <= n; ++v) {
    ASSERT_EQ(csr.offsets_data()[v], ref.offsets[v]) << what << " offset " << v;
  }
  for (std::size_t i = 0; i < ref.neighbors.size(); ++i) {
    ASSERT_EQ(csr.arcs_data()[i], ref.neighbors[i]) << what << " arc " << i;
  }
}

TEST(IncrementalCsr, CountingSortBuildMatchesSortBasedReference) {
  for (std::uint64_t seed : kSeeds) {
    for (const Instance& inst : instance_grid(seed)) {
      IncrementalCsr csr;
      csr.build(inst.edges);
      expect_csr_equals_reference(csr, ReferenceCsr(inst.edges), inst.name);
    }
  }
}

TEST(IncrementalCsr, EnsureReusesOnSameMultisetAndRebuildsOnChange) {
  Rng rng(7);
  EdgeList edges = gnp(200, 0.05, rng);
  IncrementalCsr csr;
  EXPECT_FALSE(csr.ensure(edges));  // cold: rebuild
  EXPECT_TRUE(csr.ensure(edges));   // identical span: reuse
  // Same multiset, permuted order: the sorted CSR is a function of the
  // multiset, so this must reuse too.
  EdgeList shuffled(edges.num_vertices());
  std::vector<Edge> perm(edges.begin(), edges.end());
  std::reverse(perm.begin(), perm.end());
  for (const Edge& e : perm) shuffled.add(e);
  EXPECT_TRUE(csr.ensure(shuffled));
  // Different edge set: rebuild, and the result matches a cold build.
  EdgeList pruned(edges.num_vertices());
  for (std::size_t i = 0; i + 1 < edges.num_edges(); ++i) {
    pruned.add(edges.begin()[i]);
  }
  EXPECT_FALSE(csr.ensure(pruned));
  expect_csr_equals_reference(csr, ReferenceCsr(pruned), "pruned");
  EXPECT_EQ(csr.rebuilds(), 2u);
  EXPECT_EQ(csr.reuses(), 2u);
}

TEST(IncrementalCsr, SearchResultsIdenticalAcrossColdAndWarmScratch) {
  // The augmenting searcher routes its adjacency through the workspace CSR;
  // alternating edge sets through one warm scratch (forcing the
  // rebuild/reuse state machine through every transition) must give the
  // same paths as fresh cold scratches.
  for (std::uint64_t seed : kSeeds) {
    const std::vector<Instance> grid = instance_grid(seed);
    MachineScratch warm;
    for (const Instance& inst : grid) {
      Rng rng(seed);
      const Matching greedy =
          greedy_maximal_matching(inst.edges, GreedyOrder::kRandom, rng);
      // First warm search rebuilds (the scratch CSR still holds the
      // previous instance), the second reuses; both must equal a cold run.
      const std::uint64_t reuses_before =
          warm.state<IncrementalCsr>().reuses();
      for (int pass = 0; pass < 2; ++pass) {
        const auto warm_paths =
            find_augmenting_paths(inst.edges, greedy, 5, &warm);
        const auto cold_paths = find_augmenting_paths(inst.edges, greedy, 5);
        ASSERT_EQ(warm_paths.size(), cold_paths.size())
            << inst.name << " pass " << pass;
        for (std::size_t i = 0; i < warm_paths.size(); ++i) {
          EXPECT_EQ(warm_paths[i].vertices, cold_paths[i].vertices)
              << inst.name << " pass " << pass;
        }
      }
      EXPECT_EQ(warm.state<IncrementalCsr>().reuses(), reuses_before + 1)
          << inst.name;
    }
  }
}

}  // namespace
}  // namespace rcc
