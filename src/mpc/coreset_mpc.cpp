#include "mpc/coreset_mpc.hpp"

#include <utility>
#include <vector>

#include "coreset/compose.hpp"
#include "coreset/matching_coresets.hpp"
#include "coreset/vc_coreset.hpp"
#include "matching/greedy.hpp"

namespace rcc {

namespace {

/// Round-combiner of the iterated matching rounds: finish solves the union
/// of the round's coreset subgraphs with the coordinator kernel
/// (union_maximum_matching_into, exactly compose_matching_coresets'
/// kMaximum solve), extends the cumulative matching, and filters the
/// survivors.
///
/// The round matching clears with retained capacity, the solve runs on the
/// coordinator scratch, and the survivors fill the executor's
/// double-buffer: steady-state rounds allocate nothing here.
struct MatchingRoundFold {
  Matching& matched;
  VertexId left_size;
  Matching round_matching;

  void absorb(EdgeList& /*summary*/, std::size_t /*machine*/,
              MpcRoundContext& /*ctx*/) {}

  EdgeList finish(std::vector<EdgeList>& summaries, MpcRoundContext& ctx,
                  Rng& /*coordinator_rng*/) {
    // Every round's input has both endpoints unmatched, so the round
    // matching is vertex-disjoint from the cumulative one and the extension
    // keeps all of it (round 0: the whole single-round solution).
    union_maximum_matching_into(round_matching, summaries, left_size,
                                &ctx.coordinator_scratch());
    greedy_extend(matched, round_matching);
    ctx.survivors_out().assign_filtered(
        ctx.active_edges(), [&](const Edge& e) {
          return !matched.is_matched(e.u) && !matched.is_matched(e.v);
        });
    return std::move(ctx.survivors_out());
  }
};

/// VC round-combiner: absorb accumulates the peeled (fixed)
/// vertices per machine; finish either commits them and carries the edges
/// they leave uncovered, or — on the last round / a stalled intermediate one
/// — runs the full composition over the retained summaries.
struct VcRoundFold {
  VertexCover& cover;
  VertexId n;
  ThreadPool* pool;
  VertexCover round_fixed;

  VcRoundFold(VertexCover& cover, VertexId n, ThreadPool* pool)
      : cover(cover), n(n), pool(pool), round_fixed(n) {}

  void absorb(VcCoresetOutput& summary, std::size_t /*machine*/,
              MpcRoundContext& /*ctx*/) {
    for (VertexId v : summary.fixed_vertices) round_fixed.insert(v);
  }

  EdgeList finish(std::vector<VcCoresetOutput>& summaries,
                  MpcRoundContext& ctx, Rng& coordinator_rng) {
    if (!ctx.last_round() && round_fixed.size() > 0) {
      // Intermediate round: commit only the peeled vertices and carry the
      // edges they do not cover. If no machine peeled anything, another
      // identical round cannot make progress — fall through and finish now.
      cover.merge(round_fixed);
      round_fixed.reset(n);
      ctx.survivors_out().assign_filtered(
          ctx.active_edges(), [&](const Edge& e) {
            return !cover.contains(e.u) && !cover.contains(e.v);
          });
      return std::move(ctx.survivors_out());
    }
    // Final round: the full composition (fixed vertices + 2-approximation
    // of the residual union) covers everything still active.
    cover.merge(compose_vc_coresets(summaries, n, coordinator_rng, pool));
    round_fixed.reset(n);
    ctx.request_stop();
    return std::move(ctx.survivors_out());  // reset by the executor: empty
  }
};

}  // namespace

CoresetMpcMatchingResult coreset_mpc_matching_rounds(
    EdgeSource graph, const MpcEngineConfig& config, VertexId left_size,
    Rng& rng, ThreadPool* pool, ProtocolWorkspace* workspace) {
  const MaximumMatchingCoreset coreset;
  Matching matched(graph.num_vertices());

  const auto build = [&](EdgeSpan piece, const PartitionContext& ctx,
                         Rng& machine_rng) {
    return coreset.build(piece, ctx, machine_rng);
  };
  const auto account = [](const EdgeList& summary) {
    return MessageSize{summary.num_edges(), 0};
  };
  MatchingRoundFold fold{matched, left_size, {}};

  // The coreset build reads nothing but its shard and the machine rng, so
  // a cross-process run may keep one worker host for every round.
  MpcEngineConfig exec = config;
  exec.round_invariant_build = true;

  CoresetMpcMatchingResult result;
  result.stats = run_mpc_rounds(graph, exec, left_size, rng, pool, build,
                                account, fold, workspace);
  result.matching = std::move(matched);
  result.rounds = result.stats.mpc_rounds;
  result.max_memory_words = result.stats.max_memory_words;
  return result;
}

CoresetMpcVcResult coreset_mpc_vertex_cover_rounds(
    EdgeSource graph, const MpcEngineConfig& config, Rng& rng,
    ThreadPool* pool, ProtocolWorkspace* workspace) {
  const VertexId n = graph.num_vertices();
  const PeelingVcCoreset coreset;
  VertexCover cover(n);

  const auto build = [&](EdgeSpan piece, const PartitionContext& ctx,
                         Rng& machine_rng) {
    return coreset.build(piece, ctx, machine_rng);
  };
  const auto account = [](const VcCoresetOutput& summary) {
    return MessageSize{summary.residual_edges.num_edges(),
                       summary.fixed_vertices.size()};
  };
  VcRoundFold fold(cover, n, pool);

  // Same story as the matching driver: the peeling build is a pure function
  // of (piece, ctx, rng), so keeping one worker host is safe.
  MpcEngineConfig exec = config;
  exec.round_invariant_build = true;

  CoresetMpcVcResult result;
  result.stats = run_mpc_rounds(graph, exec, /*left_size=*/0, rng, pool,
                                build, account, fold, workspace);
  result.cover = std::move(cover);
  result.rounds = result.stats.mpc_rounds;
  result.max_memory_words = result.stats.max_memory_words;
  return result;
}

}  // namespace rcc
