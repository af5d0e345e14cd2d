#include "mpc/edcs_rounds.hpp"

#include <utility>
#include <vector>

#include "matching/greedy.hpp"
#include "matching/max_matching.hpp"
#include "util/options.hpp"
#include "util/workspace.hpp"

namespace rcc {

namespace {

/// Round-combiner: finish solves the union of the machines' EDCSs exactly,
/// extends the cumulative matching, and recirculates the still-both-
/// unmatched edges.
///
/// The union CSR is built from the summaries in place, in machine order, in
/// the coordinator scratch; the round matching clears with retained
/// capacity and the survivors fill the executor's double-buffer: steady-
/// state rounds allocate nothing here.
struct EdcsRoundFold {
  Matching& matched;
  const EdcsRoundsConfig& cfg;
  bool& certified;
  VertexId left_size;
  Matching round_matching;

  void absorb(EdgeList& /*summary*/, std::size_t /*machine*/,
              MpcRoundContext& /*ctx*/) {}

  EdgeList finish(std::vector<EdgeList>& summaries, MpcRoundContext& ctx,
                  Rng& /*coordinator_rng*/) {
    // Every round's input has both endpoints unmatched, so the union's
    // maximum matching is vertex-disjoint from the cumulative one and the
    // extension keeps all of it. This is where the EDCS quality cashes out:
    // the union preserves an almost-3/2-approximate matching of the round's
    // graph, where the greedy fold's union of machine matchings does not.
    // The solve is the unseeded one: which maximum matching round 0 returns
    // decides the later rounds, and the certified seed measured worse here.
    MachineScratch& scratch = ctx.coordinator_scratch();
    Graph& union_graph = scratch.state<Graph>();
    union_graph.assign_union(
        summaries, bipartition_if(left_size),
        &scratch.cursor(summaries.front().num_vertices()));
    maximum_matching_into(round_matching, union_graph, &scratch);
    const std::size_t before = matched.size();
    greedy_extend(matched, round_matching);

    EdgeList& survivors = ctx.survivors_out();
    survivors.assign_filtered(ctx.active_edges(), [&](const Edge& e) {
      return !matched.is_matched(e.u) && !matched.is_matched(e.v);
    });
    if (!survivors.empty() && ctx.last_round() && cfg.finish_maximal) {
      // Round cap reached with open edges: one coordinator sweep closes the
      // matching to maximality so the run still ends certified. The sweep
      // centralizes the survivors on machine M — charge their residency
      // first (2 words per edge), like the augmenting combiner's sweep.
      ctx.charge(0, 2 * static_cast<std::uint64_t>(survivors.num_edges()));
      for (const Edge& e : survivors) {
        if (!matched.is_matched(e.u) && !matched.is_matched(e.v)) {
          matched.match(e.u, e.v);
        }
      }
      survivors.clear();
    }
    ctx.note_progress(matched.size() - before);

    if (survivors.empty()) {
      // Edges only ever leave the survivor set by losing an endpoint to the
      // matching, and the matching never shrinks — so an empty survivor set
      // means every edge of G has a matched endpoint: the matching is
      // maximal in G (worst-case ratio 2) and its endpoint set is a
      // feasible vertex cover (ratio 2 against the optimum cover, which
      // must take one endpoint of every matched edge).
      certified = true;
      ctx.certify_ratio(2.0);
      ctx.request_stop();
    }
    return std::move(survivors);
  }
};

}  // namespace

EdcsMpcResult run_matching_rounds_edcs(EdgeSource graph,
                                       const MpcEngineConfig& config,
                                       const EdcsRoundsConfig& edcs,
                                       VertexId left_size, Rng& rng,
                                       ThreadPool* pool,
                                       ProtocolWorkspace* workspace) {
  edcs.edcs.validate();
  const VertexId n = graph.num_vertices();

  Matching matched(n);
  bool certified = false;

  MpcEngineConfig exec = config;
  exec.round_label = "edcs-round";
  // build_edcs reads only the shard and the const beta/lambda parameters —
  // round-invariant, so cross-process runs keep one worker host.
  exec.round_invariant_build = true;

  const auto build = [&](EdgeSpan piece, const PartitionContext& ctx, Rng&) {
    // Pure function of the shard's edge multiset (matching/edcs.hpp), so
    // thread schedule and arrival order cannot leak into the summary.
    return build_edcs(piece, edcs.edcs, ctx.scratch);
  };
  const auto account = [](const EdgeList& summary) {
    return MessageSize{summary.num_edges(), 0};
  };
  EdcsRoundFold fold{matched, edcs, certified, left_size, {}};

  EdcsMpcResult result;
  result.stats = run_mpc_rounds(graph, exec, left_size, rng, pool, build,
                                account, fold, workspace);
  result.cover.reset(n);
  const VertexId* mate = matched.mate_data();
  for (VertexId v = 0; v < n; ++v) {
    if (mate[v] != kInvalidVertex) result.cover.insert(v);
  }
  result.matching = std::move(matched);
  result.rounds = result.stats.mpc_rounds;
  result.max_memory_words = result.stats.max_memory_words;
  result.certified = certified;
  result.certified_ratio = certified ? 2.0 : 0.0;
  return result;
}

EdcsRoundsConfig edcs_config_from_options(const Options& options) {
  const std::int64_t beta = options.get_int("mpc-edcs-beta");
  const std::int64_t lambda = options.get_int("mpc-edcs-lambda");
  if (beta < 2) {
    flag_fail("mpc-edcs-beta", "%lld must be >= 2",
              static_cast<long long>(beta));
  }
  if (lambda < 1 || lambda >= beta) {
    flag_fail("mpc-edcs-lambda", "%lld must satisfy 1 <= lambda < beta "
              "(= %lld)",
              static_cast<long long>(lambda), static_cast<long long>(beta));
  }
  EdcsRoundsConfig config;
  config.edcs.beta = static_cast<std::size_t>(beta);
  config.edcs.lambda = static_cast<std::size_t>(lambda);
  config.finish_maximal = options.get_bool("mpc-edcs-finish-maximal");
  return config;
}

}  // namespace rcc
