#include "coreset/vc_coreset.hpp"

#include <cmath>

#include "util/workspace.hpp"

namespace rcc {

namespace {

/// Reusable buffers of the per-machine peeling build (stashed in the
/// machine's workspace slot; contents are garbage between calls). `current`
/// holds the survivor set once some level has peeled; until then the
/// survivors are the piece itself and are read in place.
struct PeelScratch {
  std::vector<VertexId> deg;
  EdgeList current;
  EdgeList next;
};

}  // namespace

int PeelingVcCoreset::num_levels(VertexId n, std::size_t k) {
  const double nn = std::max<double>(n, 2);
  const double floor_threshold = 4.0 * std::log2(nn);
  int delta = 1;
  while (nn / (static_cast<double>(k) * std::exp2(delta)) > floor_threshold) {
    ++delta;
  }
  return delta;
}

VcCoresetOutput PeelingVcCoreset::build(EdgeSpan piece,
                                        const PartitionContext& ctx,
                                        Rng& /*rng*/) const {
  const double n = std::max<double>(ctx.num_vertices, 2);
  const double k = static_cast<double>(ctx.k);
  const int delta = num_levels(ctx.num_vertices, ctx.k);

  VcCoresetOutput out;
  MachineScratch local;
  MachineScratch& scratch = ctx.scratch != nullptr ? *ctx.scratch : local;
  PeelScratch& s = scratch.state<PeelScratch>();
  EpochMarks& removed = scratch.vertex_marks(piece.num_vertices());
  // Only a level that peels something changes the survivor set, and with it
  // the degrees: a level that peels nothing skips both rebuilds, so until
  // the first peel the machine reads its piece in place and never copies
  // it. The degree buffer and the survivor lists double-buffer through the
  // machine's workspace across levels (and across rounds).
  bool peeled = false;
  bool degrees_stale = true;
  for (int j = 1; j <= delta - 1; ++j) {
    const EdgeSpan survivors = peeled ? EdgeSpan(s.current) : piece;
    if (degrees_stale) {
      survivors.degrees_into(s.deg);
      degrees_stale = false;
    }
    const double thr = n / (k * std::exp2(j + 1));
    const std::size_t fixed_before = out.fixed_vertices.size();
    for (VertexId v = 0; v < piece.num_vertices(); ++v) {
      if (!removed.test(v) && static_cast<double>(s.deg[v]) >= thr) {
        removed.set(v);
        out.fixed_vertices.push_back(v);
      }
    }
    if (out.fixed_vertices.size() == fixed_before) continue;
    s.next.assign_filtered(survivors, [&](const Edge& e) {
      return !removed.test(e.u) && !removed.test(e.v);
    });
    std::swap(s.current, s.next);
    peeled = true;
    degrees_stale = true;
  }
  // The summary owns its edges (the engine retains it past this call), so
  // the final survivor set is copied out rather than moved from the scratch.
  out.residual_edges.assign(peeled ? EdgeSpan(s.current) : piece);
  return out;
}

VcCoresetOutput MinVcOfPieceCoreset::build(EdgeSpan piece,
                                           const PartitionContext& /*ctx*/,
                                           Rng& /*rng*/) const {
  VcCoresetOutput out;
  out.residual_edges = EdgeList(piece.num_vertices());
  out.fixed_vertices = forest_min_vertex_cover(piece, tie_).vertices();
  return out;
}

}  // namespace rcc
