// Classical vertex cover approximations: the coordinator in the paper's
// protocols runs the 2-approximation on the union of coresets.
#pragma once

#include <vector>

#include "graph/edge_list.hpp"
#include "util/rng.hpp"
#include "vertex_cover/vertex_cover.hpp"

namespace rcc {

/// 2-approximation: both endpoints of a maximal matching. The maximal
/// matching is computed by a random-order greedy scan driven by `rng`.
VertexCover vc_two_approximation(const EdgeList& edges, Rng& rng);

/// The shared finish of every VC compose: shuffles `open` with `rng`, then
/// takes both endpoints of each edge still uncovered. No open edge may touch
/// `cover` on entry, so "uncovered" means "unmatched" and this equals
/// merging vc_two_approximation(open, rng) draw for draw: shuffling the edges
/// takes the same next_below draws as shuffling an index array over them.
void cover_by_random_greedy(std::vector<Edge>& open, VertexCover& cover,
                            Rng& rng);

/// Greedy max-degree heuristic (ln n approximation): repeatedly take the
/// highest-residual-degree vertex. O(m log n) via a degree bucket queue.
VertexCover vc_greedy_max_degree(const EdgeList& edges);

}  // namespace rcc
