#include "evidence/coreset/adversarial.hpp"

#include "matching/greedy.hpp"

namespace rcc {

EdgeList HubAdversarialMaximalCoreset::build(EdgeSpan piece,
                                             const PartitionContext& /*ctx*/,
                                             Rng& /*rng*/) const {
  // Locally visible: which planted pairs (a_i, b_i) live in this piece.
  std::vector<bool> pair_local(n_, false);
  for (const Edge& e : piece) {
    if (e.v == e.u + n_ && e.u < n_) pair_local[e.u] = true;
  }

  const VertexId hub_begin = 2 * n_;
  auto is_hub_edge = [&](const Edge& e) { return e.v >= hub_begin; };

  // Scan order: (0) hub edges of pair-local left vertices — consuming hubs
  // to block those pairs; (1) other hub edges; (2) planted pair edges.
  const Matching m = greedy_maximal_matching_by(piece, [&](const Edge& e) {
    if (is_hub_edge(e)) return pair_local[e.u] ? 0.0 : 1.0;
    return 2.0;
  });
  RCC_CHECK(m.maximal_in(piece));
  return m.to_edge_list();
}

}  // namespace rcc
