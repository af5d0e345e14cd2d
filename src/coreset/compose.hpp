// Coreset composition: what the coordinator does with the union of the
// machines' summaries.
#pragma once

#include <span>
#include <vector>

#include "coreset/coreset.hpp"
#include "matching/matching.hpp"
#include "partition/sharded_partition.hpp"
#include "vertex_cover/vertex_cover.hpp"

namespace rcc {

class MachineScratch;
class ThreadPool;

enum class ComposeSolver {
  kMaximum,  // exact maximum matching of the union (what the paper suggests)
  kGreedy,   // random-order maximal matching (cheaper, still 2-approx of union)
};

/// Matching: union the coreset subgraphs and run a matching algorithm on the
/// union. `left_size` > 0 enables the bipartite exact solver. kMaximum runs
/// union_maximum_matching_into.
Matching compose_matching_coresets(const std::vector<EdgeList>& coresets,
                                   ComposeSolver solver, VertexId left_size,
                                   Rng& rng);

/// The coordinator's union solve, shared by compose_matching_coresets and
/// the MPC matching fold: a maximum matching of the union of `summaries`
/// (one vertex universe), written into `out`. Theorem 1 accepts any maximum
/// matching of the union, so the solve builds its CSR straight from the
/// summaries, in machine order (no union copy), and runs the certified
/// solve on it (certified_maximum_matching_into: a Karp-Sipser seed that
/// stops at its core certificate, finished by blossom, or Hopcroft-Karp
/// when `left_size` > 0, only where the seed falls short). The result is a
/// deterministic function of the summaries; `scratch` (optional) only
/// provides the working memory.
void union_maximum_matching_into(Matching& out,
                                 std::span<const EdgeList> summaries,
                                 VertexId left_size,
                                 MachineScratch* scratch = nullptr);

/// Vertex cover: union all fixed vertices, drop residual edges they already
/// cover, and 2-approximate the rest (Section 3.2: "compute a vertex cover
/// of union G_Delta^(i) and return it together with union V_cs^(i)").
/// Shuffling the open edges themselves takes the draws an index shuffle
/// would, so cover_by_random_greedy is vc_two_approximation, copy-free.
/// `pool` (optional) gathers the open edges machine by machine; the cover
/// does not depend on it.
VertexCover compose_vc_coresets(const std::vector<VcCoresetOutput>& coresets,
                                VertexId num_vertices, Rng& rng,
                                ThreadPool* pool = nullptr);

/// The GreedyMatch combiner of Section 3.1, used by the proof of Theorem 1:
/// scan machines in order; from each machine's *maximum matching*, add every
/// edge compatible with the matching built so far. Returns the matching and
/// the size after each step (step_sizes[i] = |M^(i+1)|), which EXP12 uses to
/// verify the Lemma 3.2 growth claim.
struct GreedyMatchTrace {
  Matching matching;
  std::vector<std::size_t> step_sizes;
};
GreedyMatchTrace greedy_match(const ShardedPartition<Edge>& parts,
                              const PartitionContext& base_ctx, Rng& rng);

}  // namespace rcc
