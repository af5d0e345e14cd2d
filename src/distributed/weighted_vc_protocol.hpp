// Weighted vertex cover in the simultaneous model via weight grouping.
//
// The paper states (Section 1.1) that "grouping by weight" extends the
// Theorem 2 coreset to weighted vertex cover with an O(log n) factor loss
// in approximation and space, and omits the details. This is our
// reconstruction of that blueprint:
//
//   1. Bucket vertices into geometric weight classes (powers of two over
//      the minimum weight) — O(log W) classes.
//   2. Split the edges by the class of their *cheaper* endpoint; every edge
//      lands in exactly one class subgraph G_c.
//   3. Every machine runs the unweighted peeling coreset (Theorem 2) on its
//      piece of every G_c and sends all class summaries in one message —
//      the protocol stays simultaneous; the summary grows by the O(log W)
//      class factor, mirroring the paper's "extra O(log n) term in space".
//   4. The coordinator unions the fixed sets, then covers the residual
//      union with the *weighted* local-ratio 2-approximation (it knows the
//      weights), so the final additions are weight-aware.
//
// We make no approximation-theorem claim beyond what the bench measures
// (EXP15): ratios against the local-ratio lower bound across weight ranges.
#pragma once

#include "distributed/protocol.hpp"
#include "vertex_cover/weighted_vc.hpp"

namespace rcc {

/// The engine's canonical result (`solution` is the cover; each machine's
/// summary is its vector of per-class coresets) extended with the
/// weighted-protocol derived quantities.
struct WeightedVcProtocolResult
    : ProtocolResult<VertexCover, std::vector<VcCoresetOutput>> {
  double cover_cost = 0.0;
  std::size_t weight_classes = 0;
};

WeightedVcProtocolResult weighted_vc_protocol(EdgeSource graph,
                                              const VertexWeights& weights,
                                              std::size_t k, Rng& rng,
                                              ThreadPool* pool = nullptr);

}  // namespace rcc
