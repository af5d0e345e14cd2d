#include "evidence/coreset/kernel.hpp"

#include "evidence/util/epoch_map.hpp"
#include "util/workspace.hpp"

namespace rcc {

void vertex_cap_kernel_into(EdgeList& out, EdgeSpan edges, VertexId cap,
                            MachineScratch* scratch) {
  out.reset(edges.num_vertices());
  MachineScratch local;
  MachineScratch& s = scratch != nullptr ? *scratch : local;
  // Epoch-stamped counters: clearing is an epoch bump, not an O(n) zeroing.
  auto& kept = s.state<EpochMap<VertexId>>();
  kept.reset(edges.num_vertices(), s.stats());
  for (const Edge& e : edges) {
    VertexId& ku = kept.ref(e.u);
    VertexId& kv = kept.ref(e.v);
    if (ku < cap && kv < cap) {
      out.add(e);
      ++ku;
      ++kv;
    }
  }
}

EdgeList vertex_cap_kernel(EdgeSpan edges, VertexId cap,
                           MachineScratch* scratch) {
  EdgeList out;
  vertex_cap_kernel_into(out, edges, cap, scratch);
  return out;
}

EdgeList KernelMatchingCoreset::build(EdgeSpan piece,
                                      const PartitionContext& ctx,
                                      Rng& /*rng*/) const {
  return vertex_cap_kernel(piece, cap_, ctx.scratch);
}

std::string KernelMatchingCoreset::name() const {
  return "kernel/cap=" + std::to_string(cap_);
}

}  // namespace rcc
