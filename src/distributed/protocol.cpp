#include "distributed/protocol.hpp"

#include <utility>
#include <vector>

#include "matching/greedy.hpp"
#include "matching/max_matching.hpp"
#include "vertex_cover/approx.hpp"

namespace rcc {

namespace {

/// The engine lambdas shared by the matching entry points.
struct MatchingPhases {
  const MatchingCoreset& coreset;
  ComposeSolver solver;
  VertexId left_size;

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

/// The engine lambdas shared by the vertex cover entry points.
struct VcPhases {
  const VertexCoverCoreset& coreset;

  auto build() const {
    return [this](EdgeSpan piece, const PartitionContext& ctx,
                  Rng& machine_rng) {
      return coreset.build(piece, ctx, machine_rng);
    };
  }
  static MessageSize account(const VcCoresetOutput& summary) {
    return MessageSize{summary.residual_edges.num_edges(),
                       summary.fixed_vertices.size()};
  }
  static auto combine(VertexId num_vertices) {
    return [num_vertices](std::vector<VcCoresetOutput>& summaries,
                          Rng& coordinator_rng) {
      return compose_vc_coresets(summaries, num_vertices, coordinator_rng);
    };
  }
};

/// StreamingFold of the matching protocol: absorb unions the coreset
/// subgraphs as machines finish (canonical order reproduces
/// compose_matching_coresets' EdgeList::union_of byte for byte), finish
/// solves the union. Absorb touches only the coordinator's union, never
/// anything the machine phase reads.
struct MatchingStreamFold {
  ComposeSolver solver;
  VertexId left_size;
  EdgeList union_edges;

  void init(std::size_t /*k*/) {}
  void absorb(EdgeList& summary, std::size_t /*machine*/) {
    union_edges.append(summary);
  }
  Matching finish(std::vector<EdgeList>& /*summaries*/, Rng& rng) {
    if (solver == ComposeSolver::kMaximum) {
      return maximum_matching(union_edges, left_size);
    }
    return greedy_maximal_matching(union_edges, GreedyOrder::kRandom, rng);
  }
};

/// StreamingFold of the VC protocol: absorb accumulates fixed vertices and
/// the raw residual union; finish drops, in place, the residual edges the
/// complete fixed set already covers and covers the rest with the shared
/// random-greedy finish — compose_vc_coresets with its first loop streamed.
struct VcStreamFold {
  VertexCover cover;
  std::vector<Edge> open;

  explicit VcStreamFold(VertexId n) : cover(n) {}

  void absorb(VcCoresetOutput& summary, std::size_t /*machine*/) {
    RCC_CHECK(summary.residual_edges.num_vertices() == cover.num_vertices());
    for (VertexId v : summary.fixed_vertices) cover.insert(v);
    open.insert(open.end(), summary.residual_edges.begin(),
                summary.residual_edges.end());
  }
  VertexCover finish(std::vector<VcCoresetOutput>& /*summaries*/, Rng& rng) {
    std::erase_if(open, [&](const Edge& e) {
      return cover.contains(e.u) || cover.contains(e.v);
    });
    cover_by_random_greedy(open, cover, rng);
    return std::move(cover);
  }
};

}  // namespace

MatchingProtocolResult run_matching_protocol(EdgeSource graph,
                                             std::size_t k,
                                             const MatchingCoreset& coreset,
                                             ComposeSolver solver,
                                             VertexId left_size, Rng& rng,
                                             ThreadPool* pool) {
  const MatchingPhases phases{coreset, solver, left_size};
  return run_protocol(graph, k, left_size, rng, pool, phases.build(),
                      &MatchingPhases::account, phases.combine());
}

MatchingProtocolResult run_matching_protocol_on_partition(
    const std::vector<EdgeList>& pieces, const MatchingCoreset& coreset,
    ComposeSolver solver, VertexId left_size, Rng& rng, ThreadPool* pool) {
  RCC_CHECK(!pieces.empty());
  const MatchingPhases phases{coreset, solver, left_size};
  return run_protocol_on_pieces<Edge>(
      pieces_of(pieces), pieces.front().num_vertices(), left_size, rng, pool,
      phases.build(), &MatchingPhases::account, phases.combine());
}

VcProtocolResult run_vc_protocol(EdgeSource graph, std::size_t k,
                                 const VertexCoverCoreset& coreset, Rng& rng,
                                 ThreadPool* pool) {
  const VcPhases phases{coreset};
  return run_protocol(graph, k, /*left_size=*/0, rng, pool, phases.build(),
                      &VcPhases::account,
                      VcPhases::combine(graph.num_vertices()));
}

VcProtocolResult run_vc_protocol_on_partition(
    const std::vector<EdgeList>& pieces, const VertexCoverCoreset& coreset,
    VertexId num_vertices, Rng& rng, ThreadPool* pool) {
  RCC_CHECK(!pieces.empty());
  const VcPhases phases{coreset};
  return run_protocol_on_pieces<Edge>(
      pieces_of(pieces), num_vertices, /*left_size=*/0, rng, pool,
      phases.build(), &VcPhases::account, VcPhases::combine(num_vertices));
}

MatchingProtocolResult run_matching_protocol_streaming(
    EdgeSource graph, std::size_t k, const MatchingCoreset& coreset,
    ComposeSolver solver, VertexId left_size, Rng& rng, ThreadPool* pool,
    const StreamingOptions& streaming) {
  const MatchingPhases phases{coreset, solver, left_size};
  MatchingStreamFold fold{solver, left_size, EdgeList(graph.num_vertices())};
  return run_protocol_streaming<Edge>(
      std::span<const Edge>(graph.edges().data(), graph.num_edges()),
      graph.num_vertices(), k, left_size, rng, pool, phases.build(),
      &MatchingPhases::account, fold, streaming);
}

VcProtocolResult run_vc_protocol_streaming(EdgeSource graph,
                                           std::size_t k,
                                           const VertexCoverCoreset& coreset,
                                           Rng& rng, ThreadPool* pool,
                                           const StreamingOptions& streaming) {
  const VcPhases phases{coreset};
  VcStreamFold fold(graph.num_vertices());
  return run_protocol_streaming<Edge>(
      std::span<const Edge>(graph.edges().data(), graph.num_edges()),
      graph.num_vertices(), k, /*left_size=*/0, rng, pool, phases.build(),
      &VcPhases::account, fold, streaming);
}

}  // namespace rcc
