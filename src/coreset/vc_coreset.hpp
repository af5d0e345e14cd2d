// The paper's VC-Coreset (Section 3.2, Theorem 2) and the negative
// min-VC-as-summary baseline (Section 1.2).
#pragma once

#include "coreset/coreset.hpp"
#include "vertex_cover/forest.hpp"

namespace rcc {

/// VC-Coreset(G(i)), verbatim from the paper:
///
///   Delta := smallest integer with n / (k * 2^Delta) <= 4 log n
///   G_1 := G(i)
///   for j = 1 .. Delta-1:
///     V_j   := { v : deg_{G_j}(v) >= n / (k * 2^{j+1}) }
///     G_{j+1} := G_j \ V_j
///   return fixed = union V_j,  residual = G_Delta
///
/// The residual has max degree < n/(k*2^Delta) <= O(log n), so at most
/// O(n log n) edges; the fixed set unions to O(log n) * VC(G) across all
/// machines w.h.p. (Lemma 3.6). Logs are base 2 here; the paper's claims
/// are insensitive to the base.
///
/// build() skips work that cannot change its output. V_j holds exactly the
/// live vertices of degree >= the level's threshold, so a level whose
/// threshold exceeds the largest live degree has an empty V_j: build()
/// keeps that maximum beside the degrees (recomputed only when the degrees
/// are, after a level that peeled) and skips such a level's vertex scan.
/// A level with an empty V_j leaves G_j, and with it the degrees, as they
/// were, so neither is rebuilt. Sparse pieces whose maximum degree sits
/// below every threshold pay one degree count and no scan.
class PeelingVcCoreset final : public VertexCoverCoreset {
 public:
  VcCoresetOutput build(EdgeSpan piece, const PartitionContext& ctx,
                        Rng& rng) const override;
  std::string name() const override { return "peeling-vc"; }

  /// Delta as defined above; exposed for tests and size accounting.
  static int num_levels(VertexId n, std::size_t k);
};

/// Negative baseline (Section 1.2): each machine sends a minimum vertex
/// cover of its own piece as the fixed solution (no residual edges). On a
/// star, pieces are single edges whose two minimum covers are locally
/// indistinguishable; with the adversarial tie-break the union degrades to
/// Omega(k) times the optimum. Exact on forest pieces (the paper's
/// instance); aborts on pieces with cycles.
class MinVcOfPieceCoreset final : public VertexCoverCoreset {
 public:
  explicit MinVcOfPieceCoreset(ForestTieBreak tie = ForestTieBreak::kHighId)
      : tie_(tie) {}

  VcCoresetOutput build(EdgeSpan piece, const PartitionContext& ctx,
                        Rng& rng) const override;
  std::string name() const override { return "min-vc-of-piece"; }

 private:
  ForestTieBreak tie_;
};

}  // namespace rcc
