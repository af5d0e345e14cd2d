// Seed-for-seed differential of the vertex-cover path against a frozen copy
// of its earlier, copy-heavy pipeline.
//
// The reference below keeps the pipeline as it was: every machine rebuilds
// its degrees and survivor list at every peeling level, and the coordinator
// deep-copies the residuals, unions them, filters out what the fixed sets
// cover, and closes with the index-shuffled greedy maximal matching. The
// production path reads pieces in place until a level peels and finishes
// with one shuffle of the open edges themselves. Both must agree on the
// fixed-vertex order, the residual edge order, the cover indicator, and the
// coordinator RNG position, on graphs where no level peels (sparse gnm),
// where later levels peel (dense gnm), and where level 1 peels (hubs).
// Two hand-built pieces pin the boundaries of the production build's skip
// of levels whose threshold exceeds the largest live degree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "coreset/compose.hpp"
#include "coreset/vc_coreset.hpp"
#include "distributed/protocols.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "partition/sharded_partition.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"
#include "vertex_cover/approx.hpp"

namespace rcc {
namespace {

// ---- Reference pipeline (frozen) -----------------------------------------

VcCoresetOutput reference_peeling_build(EdgeSpan piece,
                                        const PartitionContext& ctx) {
  const double n = std::max<double>(ctx.num_vertices, 2);
  const double k = static_cast<double>(ctx.k);
  const int delta = PeelingVcCoreset::num_levels(ctx.num_vertices, ctx.k);
  VcCoresetOutput out;
  if (delta <= 1) {
    out.residual_edges = piece.to_edge_list();
    return out;
  }
  std::vector<bool> removed(piece.num_vertices(), false);
  EdgeList current = piece.to_edge_list();
  for (int j = 1; j <= delta - 1; ++j) {
    const double thr = n / (k * std::exp2(j + 1));
    const std::vector<VertexId> deg = current.degrees();
    for (VertexId v = 0; v < piece.num_vertices(); ++v) {
      if (!removed[v] && static_cast<double>(deg[v]) >= thr) {
        removed[v] = true;
        out.fixed_vertices.push_back(v);
      }
    }
    current = current.filter(
        [&](const Edge& e) { return !removed[e.u] && !removed[e.v]; });
  }
  out.residual_edges = std::move(current);
  return out;
}

VertexCover reference_two_approximation(const EdgeList& edges, Rng& rng) {
  const Matching m = greedy_maximal_matching(edges, GreedyOrder::kRandom, rng);
  VertexCover cover(edges.num_vertices());
  for (const Edge& e : m.to_edge_list()) {
    cover.insert(e.u);
    cover.insert(e.v);
  }
  return cover;
}

VertexCover reference_compose(const std::vector<VcCoresetOutput>& coresets,
                              VertexId num_vertices, Rng& rng) {
  VertexCover cover(num_vertices);
  std::vector<EdgeList> residuals;
  for (const auto& c : coresets) {
    for (VertexId v : c.fixed_vertices) cover.insert(v);
    residuals.push_back(c.residual_edges);
  }
  EdgeList residual_union = EdgeList::union_of(residuals);
  residual_union = residual_union.filter(
      [&](const Edge& e) { return !cover.contains(e.u) && !cover.contains(e.v); });
  cover.merge(reference_two_approximation(residual_union, rng));
  return cover;
}

// ---- Grid ----------------------------------------------------------------

struct Instance {
  std::string name;
  EdgeList edges;
};

/// Hubs whose total degrees sit 1.5x above the successive peeling
/// thresholds n/2^{j+1} (times k per piece), over a sparse background:
/// level 1 peels the largest hub and each later level the next.
EdgeList hub_ladder(VertexId n, int rungs, Rng& rng) {
  EdgeList el = gnm(n, 2 * static_cast<std::uint64_t>(n), rng);
  for (int j = 1; j <= rungs; ++j) {
    const VertexId hub = static_cast<VertexId>(j - 1);
    const auto degree = static_cast<std::uint64_t>(
        1.5 * static_cast<double>(n) / std::exp2(j + 1));
    for (std::uint64_t leaf : rng.sample_distinct(n - rungs, degree)) {
      el.add(hub, static_cast<VertexId>(leaf + rungs));
    }
  }
  return el;
}

std::vector<Instance> instance_grid(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Instance> grid;
  grid.push_back({"gnm-sparse", gnm(4096, 16384, rng)});
  grid.push_back({"gnm-dense", gnm(2048, 300000, rng)});
  grid.push_back({"star", star(3000)});
  grid.push_back({"hub-ladder", hub_ladder(4096, 5, rng)});
  return grid;
}

constexpr std::uint64_t kSeeds[] = {1, 2};
constexpr std::size_t kMachineCounts[] = {1, 2, 8};

std::string cell(const Instance& inst, std::size_t k, std::uint64_t seed) {
  return inst.name + " k=" + std::to_string(k) + " seed=" +
         std::to_string(seed);
}

// ---- Tests ---------------------------------------------------------------

TEST(VcComposeDifferential, BuildAndComposeMatchReferencePipeline) {
  const PeelingVcCoreset coreset;
  MachineScratch reused;  // one scratch across every build in the grid
  std::size_t cells_with_fixed = 0;
  std::size_t cells_without_fixed = 0;
  for (std::uint64_t seed : kSeeds) {
    for (const Instance& inst : instance_grid(seed)) {
      const VertexId n = inst.edges.num_vertices();
      for (std::size_t k : kMachineCounts) {
        Rng part_rng(seed * 31 + k);
        const auto parts = shard_random(inst.edges, k, part_rng);
        std::vector<VcCoresetOutput> built;
        std::vector<VcCoresetOutput> expected;
        std::size_t fixed = 0;
        for (std::size_t i = 0; i < k; ++i) {
          PartitionContext ctx{n, k, i, 0};
          const EdgeSpan piece = shard_span(parts, i);
          expected.push_back(reference_peeling_build(piece, ctx));
          Rng unused(0);
          ctx.scratch = &reused;
          built.push_back(coreset.build(piece, ctx, unused));
          ctx.scratch = nullptr;
          const VcCoresetOutput fresh = coreset.build(piece, ctx, unused);
          EXPECT_EQ(built.back().fixed_vertices, expected.back().fixed_vertices)
              << cell(inst, k, seed) << " machine " << i;
          EXPECT_EQ(built.back().residual_edges.edges(),
                    expected.back().residual_edges.edges())
              << cell(inst, k, seed) << " machine " << i;
          EXPECT_EQ(built.back().residual_edges.num_vertices(), n);
          EXPECT_EQ(fresh.fixed_vertices, expected.back().fixed_vertices);
          EXPECT_EQ(fresh.residual_edges.edges(),
                    expected.back().residual_edges.edges());
          fixed += expected.back().fixed_vertices.size();
        }
        (fixed > 0 ? cells_with_fixed : cells_without_fixed) += 1;

        Rng rng(seed + 1000 * k);
        Rng reference_rng(seed + 1000 * k);
        const VertexCover cover = compose_vc_coresets(built, n, rng);
        const VertexCover reference =
            reference_compose(expected, n, reference_rng);
        EXPECT_EQ(cover.indicator(), reference.indicator())
            << cell(inst, k, seed);
        EXPECT_EQ(cover.size(), reference.size()) << cell(inst, k, seed);
        EXPECT_TRUE(cover.covers(inst.edges)) << cell(inst, k, seed);
        EXPECT_EQ(rng.next_u64(), reference_rng.next_u64())
            << cell(inst, k, seed);
      }
    }
  }
  // The grid must exercise both the no-peel fast path and real peeling.
  EXPECT_GT(cells_with_fixed, 0u);
  EXPECT_GT(cells_without_fixed, 0u);
}

TEST(VcComposeDifferential, GridCoversNoPeelLatePeelAndLevelOnePeel) {
  // Pins the grid's intent: which instances peel, and at which level.
  const std::vector<Instance> grid = instance_grid(1);
  const Instance& sparse = grid[0];
  const Instance& dense = grid[1];
  for (std::size_t k : kMachineCounts) {
    Rng rng(k);
    const auto sparse_parts = shard_random(sparse.edges, k, rng);
    const auto dense_parts = shard_random(dense.edges, k, rng);
    const PartitionContext sparse_ctx{sparse.edges.num_vertices(), k, 0, 0};
    const PartitionContext dense_ctx{dense.edges.num_vertices(), k, 0, 0};
    EXPECT_TRUE(reference_peeling_build(shard_span(sparse_parts, 0), sparse_ctx)
                    .fixed_vertices.empty())
        << "k=" << k;
    EXPECT_FALSE(reference_peeling_build(shard_span(dense_parts, 0), dense_ctx)
                     .fixed_vertices.empty())
        << "k=" << k;
    // Level 1's threshold n/(4k) is above every dense-piece degree.
    const std::vector<VertexId> deg = shard_span(dense_parts, 0).degrees();
    const double level1 =
        static_cast<double>(dense.edges.num_vertices()) / (4.0 * k);
    for (VertexId d : deg) EXPECT_LT(static_cast<double>(d), level1);
    // The star's center clears level 1's threshold on every machine.
    const auto star_parts = shard_random(grid[2].edges, k, rng);
    const double star_level1 =
        static_cast<double>(grid[2].edges.num_vertices()) / (4.0 * k);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_GE(static_cast<double>(shard_span(star_parts, i).degrees()[0]),
                star_level1);
    }
  }
}

/// The production build, fresh and on a reused scratch, against the
/// frozen reference on one piece; returns the reference.
VcCoresetOutput expect_build_matches_reference(const EdgeList& piece,
                                               const PartitionContext& ctx) {
  const VcCoresetOutput expected = reference_peeling_build(piece, ctx);
  MachineScratch reused;
  for (MachineScratch* scratch : {static_cast<MachineScratch*>(nullptr),
                                  &reused, &reused}) {
    PartitionContext c = ctx;
    c.scratch = scratch;
    Rng unused(0);
    const VcCoresetOutput built = PeelingVcCoreset().build(piece, c, unused);
    EXPECT_EQ(built.fixed_vertices, expected.fixed_vertices);
    EXPECT_EQ(built.residual_edges.edges(), expected.residual_edges.edges());
  }
  return expected;
}

/// A star with center `center` on the leaves [first, first + leaves).
void add_star(EdgeList& el, VertexId center, VertexId first, VertexId leaves) {
  for (VertexId leaf = first; leaf < first + leaves; ++leaf) el.add(center, leaf);
}

/// A path on [first, last]: live degree at most 2, below every threshold.
void add_path(EdgeList& el, VertexId first, VertexId last) {
  for (VertexId v = first; v < last; ++v) el.add(v, v + 1);
}

TEST(VcComposeDifferential, LevelSkipStopsAtAThresholdEqualToTheMaximum) {
  // n = 4096 and k = 4 give Delta = 5 and thresholds 256/128/64/32. The
  // piece's largest degree is a 64-leaf star's center (200): levels 1-2
  // cannot peel and are skipped, and level 3's threshold equals the
  // maximum, so it must run (the peel test is >=) and fix the center. Its
  // leaf 1000 has 31 more edges: 32 before level 3 and 31 after, so only a
  // level 3 peel keeps it out of level 4. A 40-leaf star (center 100)
  // peels at level 4, after the center: skipping level 3 (a skip test of
  // <= where it must be <) would fix [100, 200, 1000] instead.
  constexpr VertexId n = 4096;
  constexpr std::size_t k = 4;
  ASSERT_EQ(PeelingVcCoreset::num_levels(n, k), 5);
  for (int j = 1; j <= 4; ++j) {
    EXPECT_EQ(static_cast<double>(n) / (k * std::exp2(j + 1)), 512.0 / (1 << j));
  }
  EdgeList piece(n);
  add_star(piece, 200, 1000, 64);
  add_star(piece, 1000, 2000, 31);
  add_star(piece, 100, 3000, 40);
  add_path(piece, 4000, 4095);
  const std::vector<VertexId> deg = piece.degrees();
  EXPECT_EQ(*std::max_element(deg.begin(), deg.end()), 64u);
  const VcCoresetOutput expected =
      expect_build_matches_reference(piece, PartitionContext{n, k, 0, 0});
  EXPECT_EQ(expected.fixed_vertices, (std::vector<VertexId>{200, 100}));
  // Left: leaf 1000's 31 edges and the path.
  EXPECT_EQ(expected.residual_edges.num_edges(), 31u + 95u);
}

TEST(VcComposeDifferential, LevelSkipResumesAfterAPeelLowersTheMaximum) {
  // Level 1 peels a 301-degree hub (70). The largest live degree left is a
  // 70-leaf star's (center 60), below level 2's 128, so level 2 is skipped;
  // level 3 (64) must still run and peel it. Vertex 50 lost its edge to the
  // hub at level 1 and peels at level 4 (32 >= 32). A skip that ended the
  // peel instead of moving to the next level would fix [70] only.
  constexpr VertexId n = 4096;
  constexpr std::size_t k = 4;
  EdgeList piece(n);
  add_star(piece, 70, 500, 300);
  piece.add(70, 50);
  add_star(piece, 60, 1000, 70);
  add_star(piece, 50, 3000, 32);
  add_path(piece, 4000, 4095);
  const VcCoresetOutput expected =
      expect_build_matches_reference(piece, PartitionContext{n, k, 0, 0});
  EXPECT_EQ(expected.fixed_vertices, (std::vector<VertexId>{70, 60, 50}));
  EXPECT_EQ(expected.residual_edges.num_edges(), 95u);
}

/// gnm with every third edge doubled, at a shuffled position: the grid's
/// generators emit simple graphs, and an EdgeList holds no self-loops.
EdgeList gnm_with_parallel_edges(VertexId n, std::uint64_t m, Rng& rng) {
  const EdgeList base = gnm(n, m, rng);
  std::vector<Edge> edges(base.begin(), base.end());
  for (std::size_t i = 0; i < base.num_edges(); i += 3) edges.push_back(base[i]);
  rng.shuffle(edges);
  return EdgeList(n, std::move(edges));
}

/// Frozen copy of cover_by_random_greedy's scan before it went branch-free:
/// shuffle, then test and insert through the VertexCover itself.
void frozen_cover_by_random_greedy(std::vector<Edge>& open,
                                   VertexCover& cover, Rng& rng) {
  rng.shuffle(open);
  for (const Edge& e : open) {
    if (!cover.contains(e.u) && !cover.contains(e.v)) {
      cover.insert(e.u);
      cover.insert(e.v);
    }
  }
}

TEST(VcComposeDifferential, TwoApproximationMatchesIndexShuffle) {
  for (std::uint64_t seed : kSeeds) {
    std::vector<Instance> grid = instance_grid(seed);
    Rng multi_rng(seed + 100);
    grid.push_back(
        {"gnm-parallel", gnm_with_parallel_edges(2048, 8192, multi_rng)});
    for (const Instance& inst : grid) {
      Rng rng(seed);
      Rng reference_rng(seed);
      const VertexCover cover = vc_two_approximation(inst.edges, rng);
      const VertexCover reference =
          reference_two_approximation(inst.edges, reference_rng);
      EXPECT_EQ(cover.indicator(), reference.indicator()) << inst.name;
      EXPECT_EQ(rng.next_u64(), reference_rng.next_u64()) << inst.name;
    }
  }
}

TEST(VcComposeDifferential, GreedyCoverScanMatchesFrozenScan) {
  // Open edges as the compose hands them over (none touches the fixed
  // vertices already in the cover), plus parallel edges and self-loops,
  // which only a raw edge vector can carry: a self-loop's vertex is taken
  // when it is still free.
  for (std::uint64_t seed : kSeeds) {
    Rng gen(seed + 200);
    constexpr VertexId n = 3000;
    VertexCover fixed(n);
    for (VertexId v = 0; v < n; v += 7) fixed.insert(v);
    std::vector<Edge> open;
    for (const Edge& e : gnm_with_parallel_edges(n, 9000, gen)) {
      if (!fixed.contains(e.u) && !fixed.contains(e.v)) open.push_back(e);
    }
    for (VertexId v = 1; v < n; v += 5) {
      if (!fixed.contains(v)) open.push_back(Edge{v, v});
    }
    std::vector<Edge> reference_open = open;
    VertexCover cover = fixed;
    VertexCover reference = fixed;
    Rng rng(seed);
    Rng reference_rng(seed);
    cover_by_random_greedy(open, cover, rng);
    frozen_cover_by_random_greedy(reference_open, reference, reference_rng);
    EXPECT_EQ(cover.indicator(), reference.indicator()) << "seed " << seed;
    EXPECT_EQ(cover.size(), reference.size()) << "seed " << seed;
    EXPECT_EQ(rng.next_u64(), reference_rng.next_u64()) << "seed " << seed;
  }
}

TEST(VcComposeDifferential, ProtocolMatchesReferenceThroughTheEngine) {
  // The whole barrier protocol, engine forks included: the production
  // coreset_vc_protocol against the engine driven by the reference build
  // and compose.
  ThreadPool pool(4);
  for (const Instance& inst : instance_grid(3)) {
    const VertexId n = inst.edges.num_vertices();
    for (std::size_t k : kMachineCounts) {
      Rng rng(77 + k);
      Rng reference_rng(77 + k);
      const VcProtocolResult result =
          coreset_vc_protocol(inst.edges, k, rng, &pool);
      const auto reference = run_protocol(
          inst.edges, k, /*left_size=*/0, reference_rng, &pool,
          [](EdgeSpan piece, const PartitionContext& ctx, Rng&) {
            return reference_peeling_build(piece, ctx);
          },
          [](const VcCoresetOutput& s) {
            return MessageSize{s.residual_edges.num_edges(),
                               s.fixed_vertices.size()};
          },
          [n](std::vector<VcCoresetOutput>& summaries, Rng& coordinator_rng) {
            return reference_compose(summaries, n, coordinator_rng);
          });
      ASSERT_EQ(result.summaries.size(), reference.summaries.size());
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_EQ(result.summaries[i].fixed_vertices,
                  reference.summaries[i].fixed_vertices);
        EXPECT_EQ(result.summaries[i].residual_edges.edges(),
                  reference.summaries[i].residual_edges.edges());
      }
      EXPECT_EQ(result.solution.indicator(), reference.solution.indicator())
          << cell(inst, k, 3);
      EXPECT_EQ(result.comm.total_words(), reference.comm.total_words());
      EXPECT_EQ(rng.next_u64(), reference_rng.next_u64()) << cell(inst, k, 3);
    }
  }
}

TEST(VcComposeDifferential, PooledComposeMatchesSequentialDrawForDraw) {
  // The compose runs once, after the machine phase, whatever ran the
  // machines: a one-thread and a four-thread pool reproduce the sequential
  // cover, ledger and RNG position exactly.
  ThreadPool one(1);
  ThreadPool four(4);
  for (const Instance& inst : instance_grid(4)) {
    for (std::size_t k : kMachineCounts) {
      Rng sequential_rng(5 + k);
      const VcProtocolResult sequential =
          coreset_vc_protocol(inst.edges, k, sequential_rng);
      const std::uint64_t next = sequential_rng.next_u64();
      for (ThreadPool* pool : {&one, &four}) {
        Rng rng(5 + k);
        const VcProtocolResult pooled =
            coreset_vc_protocol(inst.edges, k, rng, pool);
        EXPECT_EQ(sequential.solution.indicator(), pooled.solution.indicator())
            << cell(inst, k, 4) << " threads=" << pool->size();
        EXPECT_EQ(sequential.comm.total_words(), pooled.comm.total_words());
        EXPECT_EQ(rng.next_u64(), next) << cell(inst, k, 4);
      }
    }
  }
}

}  // namespace
}  // namespace rcc
