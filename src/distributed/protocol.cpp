#include "distributed/protocol.hpp"

#include <vector>

namespace rcc {

namespace {

/// The engine lambdas shared by the matching entry points.
struct MatchingPhases {
  const MatchingCoreset& coreset;
  ComposeSolver solver;
  VertexId left_size;
  ThreadPool* pool;

  auto build() const {
    return [this](EdgeSpan piece, const PartitionContext& ctx,
                  Rng& machine_rng) {
      return coreset.build(piece, ctx, machine_rng);
    };
  }
  static MessageSize account(const EdgeList& summary) {
    return MessageSize{summary.num_edges(), 0};
  }
  auto combine() const {
    return [this](std::vector<EdgeList>& summaries, Rng& coordinator_rng) {
      return compose_matching_coresets(summaries, solver, left_size,
                                       coordinator_rng);
    };
  }
};

}  // namespace

MatchingProtocolResult run_matching_protocol(
    EdgeSource graph, std::size_t k, const MatchingCoreset& coreset,
    ComposeSolver solver, VertexId left_size, Rng& rng, ThreadPool* pool,
    const StreamingOptions& streaming) {
  const MatchingPhases phases{coreset, solver, left_size, pool};
  return run_protocol(graph, k, left_size, rng, pool, phases.build(),
                      &MatchingPhases::account, phases.combine(), streaming);
}

MatchingProtocolResult run_matching_protocol_on_partition(
    const std::vector<std::span<const Edge>>& pieces, VertexId num_vertices,
    const MatchingCoreset& coreset, ComposeSolver solver, VertexId left_size,
    Rng& rng, ThreadPool* pool) {
  const MatchingPhases phases{coreset, solver, left_size, pool};
  return run_protocol_on_pieces<Edge>(pieces, num_vertices, left_size, rng,
                                      pool, phases.build(),
                                      &MatchingPhases::account,
                                      phases.combine());
}

VcProtocolResult run_vc_protocol(EdgeSource graph, std::size_t k,
                                 const VertexCoverCoreset& coreset, Rng& rng,
                                 ThreadPool* pool,
                                 const StreamingOptions& streaming) {
  const VertexId num_vertices = graph.num_vertices();
  return run_protocol(
      graph, k, /*left_size=*/0, rng, pool,
      [&coreset](EdgeSpan piece, const PartitionContext& ctx,
                 Rng& machine_rng) {
        return coreset.build(piece, ctx, machine_rng);
      },
      [](const VcCoresetOutput& summary) {
        return MessageSize{summary.residual_edges.num_edges(),
                           summary.fixed_vertices.size()};
      },
      [pool, num_vertices](std::vector<VcCoresetOutput>& summaries,
                           Rng& coordinator_rng) {
        return compose_vc_coresets(summaries, num_vertices, coordinator_rng,
                                   pool);
      },
      streaming);
}

}  // namespace rcc
