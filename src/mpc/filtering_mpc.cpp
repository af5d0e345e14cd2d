#include "mpc/filtering_mpc.hpp"

#include <utility>

#include "matching/greedy.hpp"

namespace rcc {

namespace {

/// Round-combiner of the filtering baseline: absorb greedily extends the
/// central matching with each machine's sample in machine order, finish runs
/// the broadcast-and-filter super-step.
struct FilteringRoundFold {
  FilteringMpcResult& result;
  Matching& m;
  VertexId n;
  std::uint64_t memory_edges;
  /// The coordinator's plan for the next round, updated in finish (it rides
  /// the V(M) broadcast in the real protocol): ship everything once the
  /// residual fits on one machine, otherwise sample at a rate that lands an
  /// expected memory/2 words on the central machine. The build lambda reads
  /// these between rounds — never while a round's absorbs are in flight.
  bool finish_round = false;
  double rate = 1.0;

  void plan_for(std::size_t active_edges) {
    finish_round = active_edges <= memory_edges;
    rate = finish_round ? 1.0
                        : static_cast<double>(memory_edges) /
                              (2.0 * static_cast<double>(active_edges));
  }

  void absorb(EdgeList& sample, std::size_t /*machine*/,
              MpcRoundContext& /*ctx*/) {
    // Central machine: maximal matching of the collected sample, merged.
    greedy_extend(m, sample);
  }

  EdgeList finish(std::vector<EdgeList>& /*samples*/, MpcRoundContext& ctx,
                  Rng& /*coordinator_rng*/) {
    if (finish_round) {
      result.completed = true;
      ctx.request_stop();
      return std::move(ctx.survivors_out());  // reset by the executor: empty
    }
    ++result.filter_iterations;

    // Second super-step of the iteration: broadcast V(M); every machine
    // keeps its residual shard plus the matched-vertex list resident and
    // drops covered edges.
    ctx.begin_round("broadcast-and-filter");
    EdgeList& survivors = ctx.survivors_out();
    survivors.assign_filtered(ctx.active_edges(), [&](const Edge& e) {
      return !m.is_matched(e.u) && !m.is_matched(e.v);
    });
    const std::uint64_t shard =
        (2 * survivors.num_edges()) / ctx.num_machines() + 2;
    ctx.charge_all(shard + 2 * m.size());
    if (survivors.empty()) {
      // Every edge of G is covered: m is already maximal, no finish needed.
      result.completed = true;
    } else {
      plan_for(survivors.num_edges());
    }
    return std::move(survivors);
  }
};

}  // namespace

FilteringMpcResult filtering_mpc_rounds(EdgeSource graph,
                                        const MpcEngineConfig& config, Rng& rng,
                                        ThreadPool* pool,
                                        ProtocolWorkspace* workspace) {
  const VertexId n = graph.num_vertices();
  const std::uint64_t memory_edges = config.mpc.memory_words / 2;
  RCC_CHECK(memory_edges > 0);

  MpcEngineConfig engine_config = config;
  // Filtering never reshuffles (sampling is oblivious to placement) and
  // models map-side residency in its own broadcast step. early_stop is
  // honored as configured. Every round's input edges have both endpoints
  // unmatched, so a newly matched edge is itself filtered out: the
  // survivors shrink exactly when the matching grows, and the executor only
  // stops on a round that matched nothing. The only such round is an
  // all-empty sample draw — any nonempty sample matches at least one
  // edge. P(all empty) = (1-rate)^survivors <=
  // e^(-memory_words/4) per round, negligible for any real budget; a
  // degenerate-budget caller that wants pure Las-Vegas resampling instead
  // can pass early_stop = false (the run is honestly marked incomplete
  // either way).
  engine_config.input_already_random = true;
  engine_config.charge_input_residency = false;
  engine_config.round_label = "sample-and-match";

  FilteringMpcResult result;
  result.completed = false;
  Matching m(n);

  FilteringRoundFold fold{result, m, n, memory_edges};
  fold.plan_for(graph.num_edges());

  // NOT round-invariant: the build reads fold.rate / fold.finish_round,
  // which the coordinator rewrites between rounds — cross-process runs must
  // fork per round (the default) so workers see the fresh schedule.
  const auto build = [&](EdgeSpan piece, const PartitionContext&,
                         Rng& machine_rng) {
    if (fold.finish_round) return piece.to_edge_list();  // residual fits
    return piece.filter(
        [&](const Edge&) { return machine_rng.bernoulli(fold.rate); });
  };
  const auto account = [](const EdgeList& summary) {
    return MessageSize{summary.num_edges(), 0};
  };

  result.stats = run_mpc_rounds(graph, engine_config, /*left_size=*/0, rng,
                                pool, build, account, fold, workspace);

  if (result.completed) {
    RCC_CHECK(m.maximal_in(graph.edges()));
  }
  result.cover = VertexCover(n);
  for (const Edge& e : m.to_edge_list()) {
    result.cover.insert(e.u);
    result.cover.insert(e.v);
  }
  if (result.completed) {
    RCC_CHECK(result.cover.covers(graph.edges()));
  }
  result.maximal_matching = std::move(m);
  result.rounds = result.stats.mpc_rounds;
  result.max_memory_words = result.stats.max_memory_words;
  return result;
}

}  // namespace rcc
