#include "matching/greedy.hpp"

namespace rcc {

Matching greedy_maximal_matching(EdgeSpan edges, GreedyOrder order, Rng& rng,
                                 MachineScratch* scratch) {
  Matching out;
  greedy_maximal_matching_into(out, edges, order, rng, scratch);
  return out;
}

void greedy_extend(Matching& base, const EdgeList& extra) {
  // A free-free edge is exactly a length-1 augmenting path: matching it
  // grows the matching by one.
  for (const Edge& e : extra) {
    if (!base.is_matched(e.u) && !base.is_matched(e.v)) base.match(e.u, e.v);
  }
}

void greedy_extend(Matching& base, const Matching& extra) {
  for (VertexId v = 0; v < extra.num_vertices(); ++v) {
    const VertexId w = extra.mate(v);
    if (w == kInvalidVertex || w < v) continue;  // each edge once, via min end
    if (!base.is_matched(v) && !base.is_matched(w)) base.match(v, w);
  }
}

}  // namespace rcc
