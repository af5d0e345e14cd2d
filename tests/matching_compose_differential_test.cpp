// Differential of the coordinator's matching compose against frozen copies
// of its earlier pipelines.
//
// The first reference keeps the compose as it was before the union kernel:
// deep-copy the machine summaries into one union list and hand it to the
// generic exact solver (blossom with its vertex-order greedy
// initialization, or Hopcroft-Karp from the empty matching). The production
// solve builds its CSR from the summaries in place, seeds the solver with
// Karp-Sipser and stops at the seed's core certificate, so it may return a
// different maximum matching — but never one of a different size.
//
// The second reference is the union kernel as it was before it shared the
// certified solve: the same in-place CSR and Karp-Sipser seed, but stopped
// at the Tutte-Berge bound with S = {} on the whole union. Both stops are
// upper bounds on the maximum, and a stop only decides whether the final
// searches, which cannot augment, run; so the two must agree mate for mate.
//
// Beyond that, the grid pins what the rest of the system relies on: the
// matching is valid and drawn from the union, the one-round MPC executor
// returns the protocol's matching mate for mate, and the pool running the
// machines changes nothing.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "coreset/compose.hpp"
#include "distributed/protocols.hpp"
#include "graph/generators.hpp"
#include "matching/blossom.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/max_matching.hpp"
#include "matching/warm_start.hpp"
#include "mpc/coreset_mpc.hpp"
#include "partition/sharded_partition.hpp"
#include "util/thread_pool.hpp"

namespace rcc {
namespace {

// ---- Reference composes (frozen) -----------------------------------------

Matching reference_compose(const std::vector<EdgeList>& summaries,
                           VertexId left_size) {
  EdgeList all(summaries.front().num_vertices());
  for (const EdgeList& s : summaries) all.append(s);
  return maximum_matching(all, left_size);
}

/// (n - #odd connected components) / 2: the Tutte-Berge bound with S = {}.
std::size_t tutte_berge_bound(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<char> seen(n, 0);
  std::vector<VertexId> queue;
  std::size_t odd = 0;
  for (VertexId root = 0; root < n; ++root) {
    if (seen[root]) continue;
    seen[root] = 1;
    queue.assign(1, root);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (const VertexId w : g.neighbors(queue[head])) {
        if (!seen[w]) {
          seen[w] = 1;
          queue.push_back(w);
        }
      }
    }
    odd += queue.size() & 1;
  }
  return (n - odd) / 2;
}

/// The union kernel with its Tutte-Berge stop, serial.
Matching tutte_berge_kernel(std::span<const EdgeList> summaries,
                            VertexId left_size) {
  Graph g;
  g.assign_union(summaries, bipartition_if(left_size));
  Matching out;
  karp_sipser_into(out, g);
  const std::size_t bound = tutte_berge_bound(g);
  if (g.is_bipartite_tagged()) {
    hopcroft_karp_into(out, g, nullptr, &out, bound);
  } else {
    blossom_maximum_matching_into(out, g, nullptr,
                                  /*prune_hungarian_trees=*/true, &out, bound);
  }
  return out;
}

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

/// Disjoint traps where the Tutte-Berge bound with S = {} is not tight: a
/// 5-cycle with a pendant vertex that carries two leaves (maximum 3 of 8
/// vertices), and a claw; a sprinkle of random edges joins some of them.
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

bool same_mates(const Matching& a, const Matching& b) {
  if (a.num_vertices() != b.num_vertices()) return false;
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    if (a.mate(v) != b.mate(v)) return false;
  }
  return true;
}

MpcEngineConfig one_round(std::size_t k) {
  MpcEngineConfig config;
  config.mpc.num_machines = k;
  config.mpc.memory_words = std::uint64_t{1} << 60;
  config.max_rounds = 1;
  return config;
}

// ---- Tests ---------------------------------------------------------------

TEST(MatchingComposeDifferential, KernelMatchesFrozenComposeOnEveryCell) {
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
    for (const Instance& inst : instance_grid(seed)) {
      for (std::size_t k : kMachineCounts) {
        const std::uint64_t run_seed = seed * 1000 + k;
        Rng rng(run_seed);
        const MatchingProtocolResult run =
            coreset_matching_protocol(inst.edges, k, inst.left_size, rng);
        const Matching& got = run.solution;

        const Matching expected =
            reference_compose(run.summaries, inst.left_size);
        EXPECT_EQ(got.size(), expected.size()) << cell(inst, k, seed);
        EXPECT_TRUE(got.valid()) << cell(inst, k, seed);
        EXPECT_TRUE(got.subset_of(EdgeList::union_of(run.summaries)))
            << cell(inst, k, seed);

        Matching direct;
        union_maximum_matching_into(direct, run.summaries, inst.left_size);
        EXPECT_TRUE(same_mates(direct, got)) << cell(inst, k, seed);
        EXPECT_TRUE(same_mates(
            tutte_berge_kernel(run.summaries, inst.left_size), got))
            << cell(inst, k, seed) << ": differs from the Tutte-Berge stop";

        Rng mpc_rng(run_seed);
        const CoresetMpcMatchingResult mpc = coreset_mpc_matching_rounds(
            inst.edges, one_round(k), inst.left_size, mpc_rng);
        EXPECT_TRUE(same_mates(mpc.matching, got))
            << cell(inst, k, seed) << ": one-round executor differs";

        for (ThreadPool* pool : {&pool1, &pool4}) {
          Rng pooled_rng(run_seed);
          const MatchingProtocolResult pooled = coreset_matching_protocol(
              inst.edges, k, inst.left_size, pooled_rng, pool);
          EXPECT_TRUE(same_mates(pooled.solution, got))
              << cell(inst, k, seed) << " pool " << pool->size();
        }
      }
    }
  }
}

/// The pieces of a random k-partition as owning lists, the summary type the
/// union kernel takes.
std::vector<EdgeList> random_pieces(const EdgeList& edges, std::size_t k,
                                    Rng& rng) {
  const ShardedPartition<Edge> parts = shard_random(edges, k, rng);
  std::vector<EdgeList> pieces;
  for (std::size_t i = 0; i < k; ++i) {
    pieces.push_back(shard_span(parts, i).to_edge_list());
  }
  return pieces;
}

TEST(MatchingComposeDifferential, KernelIsExactOnArbitraryUnions) {
  // Summaries that are not matchings: the raw pieces of a random partition,
  // whose union is the whole graph (hubs, dense blocks, traps included).
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + 5; ++seed) {
    for (const Instance& inst : instance_grid(seed)) {
      const std::size_t maximum =
          maximum_matching(inst.edges, inst.left_size).size();
      for (std::size_t k : kMachineCounts) {
        Rng rng(seed + k);
        const std::vector<EdgeList> pieces =
            random_pieces(inst.edges, k, rng);
        Matching solved;
        union_maximum_matching_into(solved, pieces, inst.left_size);
        EXPECT_EQ(solved.size(), maximum) << cell(inst, k, seed);
        EXPECT_TRUE(solved.subset_of(inst.edges)) << cell(inst, k, seed);
        EXPECT_TRUE(
            same_mates(solved, tutte_berge_kernel(pieces, inst.left_size)))
            << cell(inst, k, seed);
      }
    }
  }
}

TEST(MatchingComposeDifferential, ScratchReuseAcrossUnionsChangesNothing) {
  // One coordinator scratch across differently sized unions, as the MPC
  // fold uses it round after round.
  MachineScratch scratch;
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + 3; ++seed) {
    for (const Instance& inst : instance_grid(seed)) {
      Rng rng(seed);
      const std::vector<EdgeList> pieces = random_pieces(inst.edges, 8, rng);
      Matching fresh;
      union_maximum_matching_into(fresh, pieces, inst.left_size);
      Matching reused;
      union_maximum_matching_into(reused, pieces, inst.left_size, &scratch);
      EXPECT_TRUE(same_mates(fresh, reused)) << inst.name << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace rcc
