// Differential of the machines' matching build against a frozen copy of its
// earlier form.
//
// The reference below keeps the build as it was: hand the piece to the
// maximum-matching dispatcher (blossom with its vertex-order greedy
// initialization, or Hopcroft-Karp from the empty matching). The production
// build runs the certified Karp-Sipser piece solve and calls the exact
// solver only when the seed misses its certificate, so a machine may send
// a different maximum matching — but never one of a different size. Beyond
// the size, the grid pins what the rest of the system relies on: every
// summary is a valid matching drawn from its piece, the protocols' comm
// ledgers are unchanged (the subsampled protocol's too: its draws follow
// the summary size, not the edges), and the pool running the machines
// changes nothing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "distributed/protocols.hpp"
#include "graph/generators.hpp"
#include "matching/max_matching.hpp"
#include "util/thread_pool.hpp"

namespace rcc {
namespace {

// ---- Reference build (frozen) --------------------------------------------

EdgeList reference_build(EdgeSpan piece, const PartitionContext& ctx) {
  return maximum_matching(piece, ctx.left_size, ctx.scratch).to_edge_list();
}

class FrozenMaximumMatchingCoreset final : public MatchingCoreset {
 public:
  EdgeList build(EdgeSpan piece, const PartitionContext& ctx,
                 Rng& /*rng*/) const override {
    return reference_build(piece, ctx);
  }
  std::string name() const override { return "frozen-maximum-matching"; }
};

class FrozenSubsampledMatchingCoreset final : public MatchingCoreset {
 public:
  explicit FrozenSubsampledMatchingCoreset(double alpha) : alpha_(alpha) {}
  EdgeList build(EdgeSpan piece, const PartitionContext& ctx,
                 Rng& rng) const override {
    return reference_build(piece, ctx).subsample(1.0 / alpha_, rng);
  }
  std::string name() const override { return "frozen-subsampled"; }

 private:
  double alpha_;
};

/// Runs the production build and the frozen one on the same piece, with
/// the machine's own scratch, and records per machine how they compare.
struct PieceCheck {
  bool ran = false;
  std::size_t size = 0;
  std::size_t reference_size = 0;
  bool valid = false;
  bool within_piece = false;
};

class CheckedCoreset final : public MatchingCoreset {
 public:
  explicit CheckedCoreset(std::size_t k) : checks_(k) {}
  EdgeList build(EdgeSpan piece, const PartitionContext& ctx,
                 Rng& /*rng*/) const override {
    const EdgeList reference = reference_build(piece, ctx);
    Matching m;
    certified_maximum_matching_into(m, piece, ctx.left_size, ctx.scratch);
    PieceCheck& c = checks_[ctx.machine_index];
    c.ran = true;
    c.size = m.size();
    c.reference_size = reference.num_edges();
    c.valid = m.valid();
    c.within_piece = m.subset_of(piece);
    return m.to_edge_list();
  }
  std::string name() const override { return "checked"; }
  const std::vector<PieceCheck>& checks() const { return checks_; }

 private:
  mutable std::vector<PieceCheck> checks_;  // one slot per machine
};

// ---- Grid ----------------------------------------------------------------

struct Instance {
  std::string name;
  EdgeList edges;
  VertexId left_size = 0;
};

/// A planted perfect matching on L x R hidden in sparse bipartite noise.
EdgeList planted(VertexId side, Rng& rng) {
  EdgeList el = random_perfect_matching(side, rng);
  el.append(random_bipartite(side, side, 2.0 / side, rng));
  return el;
}

/// Disjoint traps whose S = {} Tutte-Berge bound is not tight: a 5-cycle
/// with a pendant vertex that carries two leaves, and a claw; a sprinkle of
/// random edges joins some of them.
EdgeList odd_traps(VertexId blocks, Rng& rng) {
  const VertexId n = 12 * blocks;
  EdgeList el(n);
  for (VertexId b = 0; b < blocks; ++b) {
    const VertexId o = 12 * b;
    for (VertexId v = 0; v < 5; ++v) el.add(o + v, o + (v + 1) % 5);
    el.add(o, o + 5);
    el.add(o + 5, o + 6);
    el.add(o + 5, o + 7);
    for (VertexId leaf = 9; leaf < 12; ++leaf) el.add(o + 8, o + leaf);
  }
  for (VertexId i = 0; i < blocks / 4; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = static_cast<VertexId>(rng.next_below(n));
    if (u != v) el.add(u, v);
  }
  return el;
}

std::vector<Instance> instance_grid(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Instance> grid;
  grid.push_back({"gnm-sparse", gnm(2000, 6000, rng), 0});
  grid.push_back({"gnm-dense", gnm(400, 16000, rng), 0});
  grid.push_back({"bipartite", random_bipartite(800, 800, 0.004, rng), 800});
  grid.push_back({"planted", planted(800, rng), 800});
  const HubGadget hub = hub_gadget(500, 30);
  grid.push_back({"hub", hub.edges, hub.left_size});
  grid.push_back({"odd-traps", odd_traps(120, rng), 0});
  return grid;
}

constexpr std::size_t kMachineCounts[] = {1, 2, 8, 16};
constexpr std::uint64_t kFirstSeed = 1;
constexpr std::uint64_t kSeeds = 20;

std::string cell(const Instance& inst, std::size_t k, std::uint64_t seed) {
  return inst.name + " k=" + std::to_string(k) + " seed=" +
         std::to_string(seed);
}

bool same_ledger(const CommStats& a, const CommStats& b) {
  if (a.per_machine.size() != b.per_machine.size()) return false;
  for (std::size_t i = 0; i < a.per_machine.size(); ++i) {
    if (a.per_machine[i].words() != b.per_machine[i].words()) return false;
  }
  return true;
}

bool same_summaries(const std::vector<EdgeList>& a,
                    const std::vector<EdgeList>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].edges() != b[i].edges()) return false;
  }
  return true;
}

// ---- Tests ---------------------------------------------------------------

TEST(PieceBuildDifferential, CertifiedBuildMatchesFrozenBuildOnEveryCell) {
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
    for (const Instance& inst : instance_grid(seed)) {
      for (std::size_t k : kMachineCounts) {
        const std::uint64_t run_seed = seed * 1000 + k;
        Rng rng(run_seed);
        const MatchingProtocolResult run =
            coreset_matching_protocol(inst.edges, k, inst.left_size, rng);

        Rng frozen_rng(run_seed);
        const MatchingProtocolResult frozen = run_matching_protocol(
            inst.edges, k, FrozenMaximumMatchingCoreset(),
            ComposeSolver::kMaximum, inst.left_size, frozen_rng);
        EXPECT_TRUE(same_ledger(run.comm, frozen.comm)) << cell(inst, k, seed);
        ASSERT_EQ(run.summaries.size(), frozen.summaries.size());
        for (std::size_t i = 0; i < k; ++i) {
          EXPECT_EQ(run.summaries[i].num_edges(),
                    frozen.summaries[i].num_edges())
              << cell(inst, k, seed) << " machine " << i;
        }

        // Both builds on the very same piece, with the machine's scratch;
        // the certified one must also be what the production coreset sent.
        const CheckedCoreset checked(k);
        Rng checked_rng(run_seed);
        const MatchingProtocolResult checked_run = run_matching_protocol(
            inst.edges, k, checked, ComposeSolver::kMaximum, inst.left_size,
            checked_rng);
        EXPECT_TRUE(same_summaries(checked_run.summaries, run.summaries))
            << cell(inst, k, seed);
        for (std::size_t i = 0; i < k; ++i) {
          const PieceCheck& c = checked.checks()[i];
          EXPECT_TRUE(c.ran) << cell(inst, k, seed) << " machine " << i;
          EXPECT_EQ(c.size, c.reference_size)
              << cell(inst, k, seed) << " machine " << i;
          EXPECT_TRUE(c.valid) << cell(inst, k, seed) << " machine " << i;
          EXPECT_TRUE(c.within_piece)
              << cell(inst, k, seed) << " machine " << i;
        }

        for (ThreadPool* pool : {&pool1, &pool4}) {
          Rng pooled_rng(run_seed);
          const MatchingProtocolResult pooled = coreset_matching_protocol(
              inst.edges, k, inst.left_size, pooled_rng, pool);
          EXPECT_TRUE(same_summaries(pooled.summaries, run.summaries))
              << cell(inst, k, seed) << " pool " << pool->size();
          EXPECT_EQ(pooled.solution.size(), run.solution.size())
              << cell(inst, k, seed) << " pool " << pool->size();
        }
      }
    }
  }
}

TEST(PieceBuildDifferential, SubsampledLedgerIsUnchanged) {
  constexpr double kAlpha = 2.0;
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
    for (const Instance& inst : instance_grid(seed)) {
      for (std::size_t k : kMachineCounts) {
        const std::uint64_t run_seed = seed * 1000 + k;
        Rng rng(run_seed);
        const MatchingProtocolResult run = subsampled_matching_protocol(
            inst.edges, k, kAlpha, inst.left_size, rng);
        Rng frozen_rng(run_seed);
        const MatchingProtocolResult frozen = run_matching_protocol(
            inst.edges, k, FrozenSubsampledMatchingCoreset(kAlpha),
            ComposeSolver::kMaximum, inst.left_size, frozen_rng);
        EXPECT_TRUE(same_ledger(run.comm, frozen.comm)) << cell(inst, k, seed);
        EXPECT_EQ(rng.next_u64(), frozen_rng.next_u64())
            << cell(inst, k, seed) << ": coordinator RNG position differs";
      }
    }
  }
}

}  // namespace
}  // namespace rcc
