#include "evidence/coreset/mixed.hpp"

#include "matching/blossom.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/max_matching.hpp"

namespace rcc {

EdgeList MixedMaximumMatchingCoreset::build(EdgeSpan piece,
                                            const PartitionContext& ctx,
                                            Rng& rng) const {
  switch (ctx.machine_index % 3) {
    case 0:
      // Dispatcher default (HK on bipartite, blossom otherwise).
      return maximum_matching(piece, ctx.left_size).to_edge_list();
    case 1: {
      // Same solver, shuffled edge order: ties broken differently, so a
      // different (still maximum) matching in general.
      std::vector<Edge> shuffled(piece.begin(), piece.end());
      rng.shuffle(shuffled);
      const EdgeList reordered(piece.num_vertices(), std::move(shuffled));
      return maximum_matching(reordered, ctx.left_size).to_edge_list();
    }
    default:
      // Force the general-graph solver even when a bipartition is known.
      return blossom_maximum_matching(Graph(piece)).to_edge_list();
  }
}

}  // namespace rcc
