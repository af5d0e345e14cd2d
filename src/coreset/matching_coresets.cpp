#include "coreset/matching_coresets.hpp"

#include "matching/max_matching.hpp"

namespace rcc {

namespace {

/// Theorem 1 accepts any maximum matching of the piece.
EdgeList piece_maximum_matching(EdgeSpan piece, const PartitionContext& ctx) {
  Matching m;
  certified_maximum_matching_into(m, piece, ctx.left_size, ctx.scratch);
  return m.to_edge_list();
}

}  // namespace

EdgeList MaximumMatchingCoreset::build(EdgeSpan piece,
                                       const PartitionContext& ctx,
                                       Rng& /*rng*/) const {
  return piece_maximum_matching(piece, ctx);
}

EdgeList MaximalMatchingCoreset::build(EdgeSpan piece,
                                       const PartitionContext& ctx,
                                       Rng& rng) const {
  const Matching m =
      key_ ? greedy_maximal_matching_by(piece, key_, ctx.scratch)
           : greedy_maximal_matching(piece, order_, rng, ctx.scratch);
  return m.to_edge_list();
}

EdgeList SubsampledMatchingCoreset::build(EdgeSpan piece,
                                          const PartitionContext& ctx,
                                          Rng& rng) const {
  return piece_maximum_matching(piece, ctx).subsample(1.0 / alpha_, rng);
}

}  // namespace rcc
