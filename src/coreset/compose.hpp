// Coreset composition: what the coordinator does with the union of the
// machines' summaries.
#pragma once

#include <vector>

#include "coreset/coreset.hpp"
#include "matching/matching.hpp"
#include "vertex_cover/vertex_cover.hpp"

namespace rcc {

enum class ComposeSolver {
  kMaximum,  // exact maximum matching of the union (what the paper suggests)
  kGreedy,   // random-order maximal matching (cheaper, still 2-approx of union)
};

/// Matching: union the coreset subgraphs and run a matching algorithm on the
/// union. `left_size` > 0 enables the bipartite exact solver.
Matching compose_matching_coresets(const std::vector<EdgeList>& coresets,
                                   ComposeSolver solver, VertexId left_size,
                                   Rng& rng);

/// Vertex cover: union all fixed vertices, drop residual edges they already
/// cover, and 2-approximate the rest (Section 3.2: "compute a vertex cover
/// of union G_Delta^(i) and return it together with union V_cs^(i)").
/// Shuffling the open edges themselves takes the draws an index shuffle
/// would, so cover_by_random_greedy is vc_two_approximation, copy-free.
VertexCover compose_vc_coresets(const std::vector<VcCoresetOutput>& coresets,
                                VertexId num_vertices, Rng& rng);

/// The GreedyMatch combiner of Section 3.1, used by the proof of Theorem 1:
/// scan machines in order; from each machine's *maximum matching*, add every
/// edge compatible with the matching built so far. Returns the matching and
/// the size after each step (step_sizes[i] = |M^(i+1)|), which EXP12 uses to
/// verify the Lemma 3.2 growth claim.
struct GreedyMatchTrace {
  Matching matching;
  std::vector<std::size_t> step_sizes;
};
GreedyMatchTrace greedy_match(const std::vector<EdgeList>& pieces,
                              const PartitionContext& base_ctx, Rng& rng);

}  // namespace rcc
