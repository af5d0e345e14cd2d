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
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "coreset/compose.hpp"
#include "coreset/vc_coreset.hpp"
#include "distributed/protocols.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "partition/partition.hpp"
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
        const std::vector<EdgeList> pieces =
            random_partition(inst.edges, k, part_rng);
        std::vector<VcCoresetOutput> built;
        std::vector<VcCoresetOutput> expected;
        std::size_t fixed = 0;
        for (std::size_t i = 0; i < k; ++i) {
          PartitionContext ctx{n, k, i, 0};
          expected.push_back(reference_peeling_build(pieces[i], ctx));
          Rng unused(0);
          ctx.scratch = &reused;
          built.push_back(coreset.build(pieces[i], ctx, unused));
          ctx.scratch = nullptr;
          const VcCoresetOutput fresh = coreset.build(pieces[i], ctx, unused);
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
    const auto sparse_pieces = random_partition(sparse.edges, k, rng);
    const auto dense_pieces = random_partition(dense.edges, k, rng);
    const PartitionContext sparse_ctx{sparse.edges.num_vertices(), k, 0, 0};
    const PartitionContext dense_ctx{dense.edges.num_vertices(), k, 0, 0};
    EXPECT_TRUE(reference_peeling_build(sparse_pieces[0], sparse_ctx)
                    .fixed_vertices.empty())
        << "k=" << k;
    EXPECT_FALSE(reference_peeling_build(dense_pieces[0], dense_ctx)
                     .fixed_vertices.empty())
        << "k=" << k;
    // Level 1's threshold n/(4k) is above every dense-piece degree.
    const std::vector<VertexId> deg = EdgeSpan(dense_pieces[0]).degrees();
    const double level1 =
        static_cast<double>(dense.edges.num_vertices()) / (4.0 * k);
    for (VertexId d : deg) EXPECT_LT(static_cast<double>(d), level1);
    // The star's center clears level 1's threshold on every machine.
    const auto star_pieces = random_partition(grid[2].edges, k, rng);
    const double star_level1 =
        static_cast<double>(grid[2].edges.num_vertices()) / (4.0 * k);
    for (const EdgeList& piece : star_pieces) {
      EXPECT_GE(static_cast<double>(piece.degrees()[0]), star_level1);
    }
  }
}

TEST(VcComposeDifferential, TwoApproximationMatchesIndexShuffle) {
  for (std::uint64_t seed : kSeeds) {
    for (const Instance& inst : instance_grid(seed)) {
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

TEST(VcComposeDifferential, StreamingFoldMatchesBarrierInBothOrders) {
  // Canonical order is draw-for-draw the barrier compose. Arrival order
  // absorbs the same residual multiset in another order, so the shuffle
  // consumes the same draws: the RNG position, the ledger and the fixed
  // part still match, and without a pool arrival order IS machine order.
  ThreadPool pool(4);
  StreamingOptions arrival;
  arrival.order = StreamingOrder::kArrival;
  for (const Instance& inst : instance_grid(4)) {
    for (std::size_t k : kMachineCounts) {
      Rng barrier_rng(5 + k);
      const VcProtocolResult barrier =
          coreset_vc_protocol(inst.edges, k, barrier_rng, &pool);

      Rng canonical_rng(5 + k);
      const VcProtocolResult canonical =
          coreset_vc_protocol_streaming(inst.edges, k, canonical_rng, &pool);
      EXPECT_EQ(barrier.solution.indicator(), canonical.solution.indicator())
          << cell(inst, k, 4);
      EXPECT_EQ(barrier.comm.total_words(), canonical.comm.total_words());

      Rng sequential_rng(5 + k);
      const VcProtocolResult sequential = coreset_vc_protocol_streaming(
          inst.edges, k, sequential_rng, nullptr, arrival);
      EXPECT_EQ(barrier.solution.indicator(), sequential.solution.indicator())
          << cell(inst, k, 4);

      Rng arrival_rng(5 + k);
      const VcProtocolResult arrived = coreset_vc_protocol_streaming(
          inst.edges, k, arrival_rng, &pool, arrival);
      EXPECT_TRUE(arrived.solution.covers(inst.edges)) << cell(inst, k, 4);
      EXPECT_EQ(barrier.comm.total_words(), arrived.comm.total_words());
      for (const VcCoresetOutput& s : barrier.summaries) {
        for (VertexId v : s.fixed_vertices) {
          EXPECT_TRUE(arrived.solution.contains(v)) << cell(inst, k, 4);
        }
      }

      const std::uint64_t next = barrier_rng.next_u64();
      EXPECT_EQ(canonical_rng.next_u64(), next) << cell(inst, k, 4);
      EXPECT_EQ(sequential_rng.next_u64(), next) << cell(inst, k, 4);
      EXPECT_EQ(arrival_rng.next_u64(), next) << cell(inst, k, 4);
    }
  }
}

}  // namespace
}  // namespace rcc
