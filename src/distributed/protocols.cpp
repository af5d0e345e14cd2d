#include "distributed/protocols.hpp"

#include <cmath>

#include "coreset/matching_coresets.hpp"
#include "coreset/vc_coreset.hpp"

namespace rcc {

MatchingProtocolResult coreset_matching_protocol(
    EdgeSource graph, std::size_t k, VertexId left_size, Rng& rng,
    ThreadPool* pool, const StreamingOptions& streaming) {
  const MaximumMatchingCoreset coreset;
  return run_matching_protocol(graph, k, coreset, ComposeSolver::kMaximum,
                               left_size, rng, pool, streaming);
}

MatchingProtocolResult subsampled_matching_protocol(EdgeSource graph,
                                                    std::size_t k, double alpha,
                                                    VertexId left_size, Rng& rng,
                                                    ThreadPool* pool) {
  const SubsampledMatchingCoreset coreset(alpha);
  return run_matching_protocol(graph, k, coreset, ComposeSolver::kMaximum,
                               left_size, rng, pool);
}

VcProtocolResult coreset_vc_protocol(EdgeSource graph, std::size_t k,
                                     Rng& rng, ThreadPool* pool,
                                     const StreamingOptions& streaming) {
  const PeelingVcCoreset coreset;
  return run_vc_protocol(graph, k, coreset, rng, pool, streaming);
}

namespace {

/// The grouping geometry plus the machine phase of the grouped driver.
struct GroupedVcPhases {
  VertexId n;
  VertexId g;         // group width
  VertexId n_groups;  // contracted universe size
  const PeelingVcCoreset& coreset;

  static GroupedVcPhases make(EdgeSource graph, double alpha,
                              const PeelingVcCoreset& coreset) {
    const VertexId n = graph.num_vertices();
    const double log_n = std::log2(std::max<double>(n, 2.0));
    const VertexId g = static_cast<VertexId>(
        std::max(1.0, std::floor(alpha / log_n)));
    return GroupedVcPhases{n, g, (n + g - 1) / g, coreset};
  }

  // Machine phase: contract the shard onto the group universe, then run the
  // Theorem 2 coreset on the contracted multigraph. Edges internal to a
  // group cannot survive the contraction (they would be self-loops); the
  // machine pins those groups into its fixed solution instead, which is
  // sound because the expansion of the group contains both endpoints.
  auto build() const {
    return [this](EdgeSpan shard, const PartitionContext& ctx,
                  Rng& machine_rng) {
      GroupedVcSummary summary;
      std::vector<bool> pinned(n_groups, false);
      EdgeList contracted(n_groups);
      for (const Edge& e : shard) {
        const VertexId gu = e.u / g;
        const VertexId gv = e.v / g;
        if (gu == gv) {
          if (!pinned[gu]) {
            pinned[gu] = true;
            summary.pinned_groups.push_back(gu);
          }
        } else {
          contracted.add(gu, gv);  // multigraph: parallel edges preserved
        }
      }
      // Edges incident to a pinned group are already covered locally.
      contracted = contracted.filter(
          [&](const Edge& e) { return !pinned[e.u] && !pinned[e.v]; });
      const PartitionContext group_ctx{n_groups, ctx.k, ctx.machine_index, 0};
      summary.core = coreset.build(contracted, group_ctx, machine_rng);
      return summary;
    };
  }

  // The pinned groups travel in the message alongside the summary.
  static MessageSize account(const GroupedVcSummary& s) {
    return MessageSize{s.core.residual_edges.num_edges(),
                       s.core.fixed_vertices.size() + s.pinned_groups.size()};
  }

  void expand_group(VertexCover& expanded, VertexId group) const {
    const VertexId begin = group * g;
    const VertexId end = std::min<VertexId>(begin + g, n);
    for (VertexId v = begin; v < end; ++v) expanded.insert(v);
  }
};

}  // namespace

GroupedVcProtocolResult grouped_vc_protocol(EdgeSource graph, std::size_t k,
                                            double alpha, Rng& rng,
                                            ThreadPool* pool) {
  const PeelingVcCoreset coreset;
  const GroupedVcPhases phases = GroupedVcPhases::make(graph, alpha, coreset);

  // Coordinator: compose the group-universe coresets, then expand the group
  // cover (and every pinned group) back to original vertices.
  const auto combine = [&](std::vector<GroupedVcSummary>& summaries,
                           Rng& coordinator_rng) {
    std::vector<VcCoresetOutput> cores;
    cores.reserve(summaries.size());
    for (GroupedVcSummary& s : summaries) cores.push_back(std::move(s.core));
    const VertexCover group_cover =
        compose_vc_coresets(cores, phases.n_groups, coordinator_rng, pool);

    VertexCover expanded(phases.n);
    for (VertexId group = 0; group < phases.n_groups; ++group) {
      if (group_cover.contains(group)) phases.expand_group(expanded, group);
    }
    for (const GroupedVcSummary& s : summaries) {
      for (VertexId group : s.pinned_groups) {
        phases.expand_group(expanded, group);
      }
    }
    return expanded;
  };

  GroupedVcProtocolResult result =
      run_protocol(graph, k, /*left_size=*/0, rng, pool, phases.build(),
                   &GroupedVcPhases::account, combine);
  RCC_CHECK(result.solution.covers(graph.edges()));
  return result;
}

MatchingProtocolResult coreset_matching_protocol_streaming(
    EdgeSource graph, std::size_t k, VertexId left_size, Rng& rng,
    ThreadPool* pool, const StreamingOptions& streaming) {
  return coreset_matching_protocol(graph, k, left_size, rng, pool, streaming);
}

VcProtocolResult coreset_vc_protocol_streaming(
    EdgeSource graph, std::size_t k, Rng& rng, ThreadPool* pool,
    const StreamingOptions& streaming) {
  return coreset_vc_protocol(graph, k, rng, pool, streaming);
}

}  // namespace rcc
