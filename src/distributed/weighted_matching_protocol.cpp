#include "distributed/weighted_matching_protocol.hpp"

#include <algorithm>

#include "matching/weighted.hpp"

namespace rcc {

namespace {

/// The machine-phase lambdas of the weighted matching protocol.
struct WeightedMatchingPhases {
  double class_base;

  auto build() const {
    return [this](WeightedEdgeSpan piece, const PartitionContext& ctx,
                  Rng& /*machine_rng*/) {
      return crouch_stubbs_coreset(piece, ctx, class_base);
    };
  }
  // A weighted edge message: two vertex ids + one weight word.
  static MessageSize account(const WeightedCoresetOutput& s) {
    return MessageSize{s.edges.edges.size(), s.edges.edges.size()};
  }
};

}  // namespace

WeightedMatchingProtocolResult weighted_matching_protocol(
    WeightedEdgeSource graph, std::size_t k, VertexId left_size, Rng& rng,
    ThreadPool* pool, double class_base) {
  const WeightedMatchingPhases phases{class_base};
  const auto combine = [&](std::vector<WeightedCoresetOutput>& summaries,
                           Rng& /*coordinator_rng*/) {
    return compose_weighted_coresets(summaries, graph.num_vertices(),
                                     left_size, class_base);
  };

  WeightedMatchingProtocolResult result;
  static_cast<ProtocolResult<Matching, WeightedCoresetOutput>&>(result) =
      run_protocol(graph, k, left_size, rng, pool, phases.build(),
                   &WeightedMatchingPhases::account, combine);
  result.matching_weight = matching_weight(result.solution, graph.edges());
  for (const WeightedCoresetOutput& s : result.summaries) {
    result.max_classes_per_machine =
        std::max(result.max_classes_per_machine,
                 split_weight_classes(s.edges, class_base).classes.size());
  }
  return result;
}

}  // namespace rcc
