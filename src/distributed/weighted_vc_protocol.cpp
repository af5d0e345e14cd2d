#include "distributed/weighted_vc_protocol.hpp"

#include <cmath>
#include <algorithm>

#include "coreset/vc_coreset.hpp"

namespace rcc {

namespace {

/// Weight-class geometry plus the machine phase: class(v) = floor(log2(w_v / w_min)), every machine
/// builds one peeling summary per class of its shard.
struct WeightedVcPhases {
  const VertexWeights& weights;
  VertexId n;
  std::vector<int> vclass;
  int num_classes = 1;
  PeelingVcCoreset coreset;

  WeightedVcPhases(EdgeSource graph, const VertexWeights& weights)
      : weights(weights), n(graph.num_vertices()), vclass(n, 0) {
    RCC_CHECK(weights.size() == n);
    double wmin = 0.0;
    for (double w : weights) {
      RCC_CHECK(w >= 0.0);
      if (w > 0.0 && (wmin == 0.0 || w < wmin)) wmin = w;
    }
    if (wmin == 0.0) wmin = 1.0;  // all-zero weights: a single class
    for (VertexId v = 0; v < n; ++v) {
      if (weights[v] > 0.0) {
        vclass[v] = static_cast<int>(std::floor(std::log2(weights[v] / wmin)));
        num_classes = std::max(num_classes, vclass[v] + 1);
      }
    }
  }

  int edge_class(const Edge& e) const {
    return std::min(vclass[e.u], vclass[e.v]);
  }

  // Machine phase: split the shard by the class of the cheaper endpoint and
  // build one peeling summary per class; all class summaries travel in one
  // message (the protocol stays simultaneous).
  auto build() const {
    return [this](EdgeSpan piece, const PartitionContext& ctx,
                  Rng& machine_rng) {
      std::vector<VcCoresetOutput> class_summaries;
      class_summaries.reserve(static_cast<std::size_t>(num_classes));
      for (int c = 0; c < num_classes; ++c) {
        const EdgeList class_piece =
            piece.filter([&](const Edge& e) { return edge_class(e) == c; });
        class_summaries.push_back(coreset.build(class_piece, ctx, machine_rng));
      }
      return class_summaries;
    };
  }

  static MessageSize account(const std::vector<VcCoresetOutput>& summaries) {
    MessageSize msg;
    for (const VcCoresetOutput& s : summaries) {
      msg.edges += s.residual_edges.num_edges();
      msg.vertices += s.fixed_vertices.size();
    }
    return msg;
  }
};

}  // namespace

WeightedVcProtocolResult weighted_vc_protocol(EdgeSource graph,
                                              const VertexWeights& weights,
                                              std::size_t k, Rng& rng,
                                              ThreadPool* pool) {
  const WeightedVcPhases phases(graph, weights);

  // Coordinator: union the fixed vertices and the residual edges of every
  // machine's class summaries, drop the residual edges the fixed union
  // covers, and close with the weighted local-ratio 2-approximation.
  const auto combine =
      [&](std::vector<std::vector<VcCoresetOutput>>& summaries,
          Rng& /*coordinator_rng*/) {
        VertexCover cover(phases.n);
        EdgeList residual_union(phases.n);
        for (const std::vector<VcCoresetOutput>& machine : summaries) {
          for (const VcCoresetOutput& s : machine) {
            for (VertexId v : s.fixed_vertices) cover.insert(v);
            residual_union.append(s.residual_edges);
          }
        }
        const EdgeList open = residual_union.filter([&](const Edge& e) {
          return !cover.contains(e.u) && !cover.contains(e.v);
        });
        cover.merge(local_ratio_weighted_vc(open, phases.weights).cover);
        return cover;
      };

  WeightedVcProtocolResult result;
  static_cast<ProtocolResult<VertexCover, std::vector<VcCoresetOutput>>&>(
      result) = run_protocol(graph, k, /*left_size=*/0, rng, pool,
                             phases.build(), &WeightedVcPhases::account,
                             combine);
  result.cover_cost = cover_weight(result.solution, phases.weights);
  result.weight_classes = static_cast<std::size_t>(phases.num_classes);
  return result;
}

}  // namespace rcc
