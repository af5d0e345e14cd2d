// Executor-level tests of the EDCS round-combiner (mpc/edcs_rounds.hpp):
// golden-seed pins of the matched edge sets and per-round communication
// words (the reshuffle-charge pinning pattern — future refactors diff
// against frozen behavior), pooled replay of the pins, thread-count
// determinism, ledger/budget accounting, the finish_maximal certificate
// lifecycle, workspace allocation discipline, and the flag plumbing.
#include "mpc/edcs_rounds.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.hpp"
#include "util/options.hpp"
#include "util/thread_pool.hpp"

namespace rcc {
namespace {

std::vector<Edge> sorted_edges(const Matching& m) {
  EdgeList el = m.to_edge_list();
  el.sort();
  return el.edges();
}

MpcEngineConfig engine_config(const EdgeList& graph, std::size_t max_rounds) {
  MpcEngineConfig config;
  config.mpc = MpcConfig::paper_default(graph.num_vertices());
  config.max_rounds = max_rounds;
  return config;
}

MpcEngineConfig roomy_config(std::size_t k, std::size_t max_rounds) {
  MpcEngineConfig config;
  config.mpc.num_machines = k;
  config.mpc.memory_words = std::uint64_t{1} << 40;
  config.max_rounds = max_rounds;
  return config;
}

EdcsMpcResult run_on(const EdgeList& graph, std::uint64_t seed,
                     ThreadPool* pool = nullptr, std::size_t max_rounds = 32,
                     ProtocolWorkspace* workspace = nullptr) {
  EdcsRoundsConfig edcs;
  Rng rng(seed);
  return run_matching_rounds_edcs(graph, engine_config(graph, max_rounds),
                                  edcs, /*left_size=*/0, rng, pool, workspace);
}

TEST(MpcEdcsGolden, Seed7PinsMatchedEdgesAndCommWords) {
  // crown_forest(4, 3): n = 24, optimum 12, paper-default k = 4 machines.
  // With beta = 16 every degree sum sits far below beta - lambda, so P2
  // ships all 24 edges (48 comm words) and the exact union solve finishes
  // the whole family in ONE certified round. Every literal below is frozen
  // behavior; a diff here means the partition, the EDCS fixpoint, the union
  // solve, or the accounting changed.
  const EdcsMpcResult r = run_on(crown_forest(4, 3), 7);
  const std::vector<Edge> expected = {
      {0, 5},   {1, 3},   {2, 4},   {6, 10},  {7, 11},  {8, 9},
      {12, 17}, {13, 15}, {14, 16}, {18, 22}, {19, 23}, {20, 21}};
  EXPECT_EQ(sorted_edges(r.matching), expected);
  EXPECT_EQ(r.matching.size(), 12u);
  EXPECT_TRUE(r.certified);
  EXPECT_DOUBLE_EQ(r.certified_ratio, 2.0);
  EXPECT_EQ(r.rounds, 1u);
  EXPECT_EQ(r.max_memory_words, 60u);
  EXPECT_EQ(r.stats.total_comm_words, 48u);
  ASSERT_EQ(r.stats.per_round.size(), 1u);
  EXPECT_EQ(r.stats.per_round[0].comm_words, 48u);
  EXPECT_EQ(r.stats.per_round[0].augmentations, 12u);
  EXPECT_EQ(r.stats.per_round[0].surviving_edges, 0u);
}

TEST(MpcEdcsGolden, Seed8PinsMatchedEdgesAndCommWords) {
  const EdcsMpcResult r = run_on(crown_forest(4, 3), 8);
  const std::vector<Edge> expected = {
      {0, 4},   {1, 5},   {2, 3},   {6, 10},  {7, 11},  {8, 9},
      {12, 16}, {13, 17}, {14, 15}, {18, 23}, {19, 21}, {20, 22}};
  EXPECT_EQ(sorted_edges(r.matching), expected);
  EXPECT_TRUE(r.certified);
  EXPECT_EQ(r.rounds, 1u);
  EXPECT_EQ(r.max_memory_words, 58u);
  EXPECT_EQ(r.stats.total_comm_words, 48u);
}

TEST(MpcEdcsGolden, DegenerateBetaPinsAMultiRoundRun) {
  // beta = 2, lambda = 1 degenerates the EDCS to a maximal matching of the
  // piece — the thin summary that CAN leave survivors. crown_forest(12, 3)
  // at seed 7 is pinned mid-trap: round 0 ships 59 edges (118 words),
  // matches 34, and leaves exactly one surviving edge; round 1 ships and
  // matches it (2 words) and certifies. The final matching is maximal but
  // one below the optimum 36 — frozen evidence of WHY the full-beta summary
  // is worth its communication.
  const EdgeList el = crown_forest(12, 3);
  EdcsRoundsConfig edcs;
  edcs.edcs.beta = 2;
  edcs.edcs.lambda = 1;
  Rng rng(7);
  const EdcsMpcResult r =
      run_matching_rounds_edcs(el, roomy_config(4, 32), edcs, 0, rng);
  EXPECT_EQ(r.matching.size(), 35u);
  EXPECT_TRUE(r.certified);
  EXPECT_EQ(r.stats.engine_rounds, 2u);
  EXPECT_EQ(r.rounds, 2u);
  EXPECT_EQ(r.max_memory_words, 152u);
  EXPECT_EQ(r.stats.total_comm_words, 120u);
  ASSERT_EQ(r.stats.per_round.size(), 2u);
  EXPECT_EQ(r.stats.per_round[0].comm_words, 118u);
  EXPECT_EQ(r.stats.per_round[0].augmentations, 34u);
  EXPECT_EQ(r.stats.per_round[0].active_edges, 72u);
  EXPECT_EQ(r.stats.per_round[0].surviving_edges, 1u);
  EXPECT_EQ(r.stats.per_round[1].comm_words, 2u);
  EXPECT_EQ(r.stats.per_round[1].augmentations, 1u);
  EXPECT_EQ(r.stats.per_round[1].surviving_edges, 0u);
  EXPECT_TRUE(r.matching.maximal_in(el));
  EXPECT_EQ(r.cover.size(), 70u);
}

TEST(MpcEdcsGolden, PooledRunReproducesTheSeed7Pins) {
  // A four-thread machine phase must replay the frozen golden behavior bit
  // for bit: same matched edges, same comm words, same ledger peaks.
  const EdgeList el = crown_forest(4, 3);
  const MpcEngineConfig config = engine_config(el, 32);
  ThreadPool pool(4);
  EdcsRoundsConfig edcs;
  Rng rng(7);
  const EdcsMpcResult r =
      run_matching_rounds_edcs(el, config, edcs, 0, rng, &pool);
  const std::vector<Edge> expected = {
      {0, 5},   {1, 3},   {2, 4},   {6, 10},  {7, 11},  {8, 9},
      {12, 17}, {13, 15}, {14, 16}, {18, 22}, {19, 23}, {20, 21}};
  EXPECT_EQ(sorted_edges(r.matching), expected);
  EXPECT_TRUE(r.certified);
  EXPECT_EQ(r.rounds, 1u);
  EXPECT_EQ(r.max_memory_words, 60u);
  EXPECT_EQ(r.stats.total_comm_words, 48u);

  // ... and the multi-round degenerate pin replays identically too.
  const EdgeList crowns = crown_forest(12, 3);
  EdcsRoundsConfig thin;
  thin.edcs.beta = 2;
  thin.edcs.lambda = 1;
  const MpcEngineConfig multi = roomy_config(4, 32);
  Rng multi_rng(7);
  const EdcsMpcResult m =
      run_matching_rounds_edcs(crowns, multi, thin, 0, multi_rng, &pool);
  EXPECT_EQ(m.matching.size(), 35u);
  EXPECT_EQ(m.stats.engine_rounds, 2u);
  EXPECT_EQ(m.max_memory_words, 152u);
  EXPECT_EQ(m.stats.total_comm_words, 120u);
}

TEST(MpcEdcs, SeedForSeedDeterministicAcrossThreadCounts) {
  Rng gen_rng(40);
  const EdgeList el = gnp(400, 0.02, gen_rng);
  const EdcsMpcResult seq = run_on(el, 40);
  for (std::size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    const EdcsMpcResult par = run_on(el, 40, &pool);
    EXPECT_EQ(sorted_edges(seq.matching), sorted_edges(par.matching))
        << threads << " threads";
    EXPECT_EQ(seq.stats.mpc_rounds, par.stats.mpc_rounds);
    EXPECT_EQ(seq.stats.total_comm_words, par.stats.total_comm_words);
    EXPECT_EQ(seq.stats.max_memory_words, par.stats.max_memory_words);
    EXPECT_EQ(seq.cover.vertices(), par.cover.vertices());
  }
}

TEST(MpcEdcs, CommWordsRespectTheP1Bound) {
  // P1 caps every machine's summary at beta * n / 2 edges, so each round's
  // collect phase ships at most k * beta * n words (2 words per edge) — the
  // communication half of the quality-vs-communication trade-off, enforced
  // on the ledger rather than assumed.
  for (std::uint64_t seed : {50u, 51u}) {
    Rng gen_rng(seed);
    const EdgeList el = gnp(300, 0.05, gen_rng);
    for (std::size_t beta : {4u, 8u, 16u}) {
      EdcsRoundsConfig edcs;
      edcs.edcs.beta = beta;
      edcs.edcs.lambda = std::max<std::size_t>(1, beta / 8);
      Rng rng(seed);
      const EdcsMpcResult r = run_matching_rounds_edcs(
          el, roomy_config(4, 32), edcs, 0, rng);
      const std::uint64_t cap = 4u * beta * el.num_vertices();
      for (const MpcRoundReport& round : r.stats.per_round) {
        EXPECT_LE(round.comm_words, cap) << "seed=" << seed
                                         << " beta=" << beta;
      }
      EXPECT_TRUE(r.certified);
    }
  }
}

TEST(MpcEdcs, BudgetAndLedgerStayConsistent) {
  for (std::uint64_t seed : {60u, 61u}) {
    Rng gen_rng(seed);
    const EdgeList el = gnp(500, 0.05, gen_rng);
    const MpcEngineConfig config = engine_config(el, 32);
    const EdcsMpcResult r = run_on(el, seed);
    EXPECT_LE(r.stats.max_memory_words, config.mpc.memory_words);
    EXPECT_EQ(r.stats.round_peak_words.size(), r.stats.round_labels.size());
    std::uint64_t peak = 0;
    for (std::uint64_t words : r.stats.round_peak_words) {
      EXPECT_LE(words, config.mpc.memory_words);
      peak = std::max(peak, words);
    }
    EXPECT_EQ(peak, r.stats.max_memory_words);
    EXPECT_EQ(r.stats.mpc_rounds, r.stats.round_labels.size());
    for (std::size_t i = 0; i < r.stats.round_labels.size(); ++i) {
      EXPECT_EQ(r.stats.round_labels[i], "edcs-round-" + std::to_string(i));
    }
  }
}

TEST(MpcEdcs, AdversarialInputPaysTheReshuffleStep) {
  Rng gen_rng(62);
  const EdgeList el = gnp(200, 0.05, gen_rng);
  MpcEngineConfig config = engine_config(el, 8);
  config.input_already_random = false;
  EdcsRoundsConfig edcs;
  Rng rng(62);
  const EdcsMpcResult r = run_matching_rounds_edcs(el, config, edcs, 0, rng);
  ASSERT_GE(r.stats.round_labels.size(), 2u);
  EXPECT_EQ(r.stats.round_labels[0], "re-partition");
  EXPECT_EQ(r.stats.round_labels[1], "edcs-round-0");
  EXPECT_TRUE(r.certified);
}

TEST(MpcEdcs, FinishMaximalClosesARoundCappedRunAndCertifies) {
  // The certificate lifecycle on the pinned mid-trap instance: capping the
  // degenerate-beta run at one round leaves one surviving edge. Without the
  // closing sweep the run ends uncertified (and the matching is honestly
  // NOT maximal); with it (the default) the coordinator matches the
  // survivor, charges 2 words for centralizing it, and certifies ratio 2.
  const EdgeList el = crown_forest(12, 3);
  EdcsRoundsConfig thin;
  thin.edcs.beta = 2;
  thin.edcs.lambda = 1;

  EdcsRoundsConfig open = thin;
  open.finish_maximal = false;
  Rng open_rng(7);
  const EdcsMpcResult uncapped =
      run_matching_rounds_edcs(el, roomy_config(4, 1), open, 0, open_rng);
  EXPECT_EQ(uncapped.matching.size(), 34u);
  EXPECT_FALSE(uncapped.certified);
  EXPECT_EQ(uncapped.certified_ratio, 0.0);
  EXPECT_EQ(uncapped.stats.certified_ratio, 0.0);
  EXPECT_FALSE(uncapped.matching.maximal_in(el));
  EXPECT_EQ(uncapped.max_memory_words, 152u);
  EXPECT_EQ(uncapped.stats.per_round[0].surviving_edges, 1u);

  Rng closed_rng(7);
  const EdcsMpcResult closed =
      run_matching_rounds_edcs(el, roomy_config(4, 1), thin, 0, closed_rng);
  EXPECT_EQ(closed.matching.size(), 35u);
  EXPECT_TRUE(closed.certified);
  EXPECT_DOUBLE_EQ(closed.certified_ratio, 2.0);
  EXPECT_EQ(closed.stats.certified_ratio, 2.0);
  EXPECT_TRUE(closed.matching.maximal_in(el));
  EXPECT_EQ(closed.max_memory_words, 154u);  // + the 2-word sweep charge
  EXPECT_EQ(closed.stats.per_round[0].surviving_edges, 0u);
  // The cover is the matched endpoints, feasible exactly when certified.
  EXPECT_TRUE(closed.cover.covers(el));
  EXPECT_EQ(closed.cover.size(), 2 * closed.matching.size());
}

TEST(MpcEdcs, SteadyStateRoundsAreWorkspaceAllocationFree) {
  // Round 0 warms the per-machine EdcsBuilder states, the union list, and
  // the survivor double-buffer; later rounds (and a whole second run on the
  // warm workspace) must not grow any workspace-tracked buffer.
  const EdgeList el = crown_forest(12, 3);
  EdcsRoundsConfig thin;  // the degenerate summary: the only multi-round run
  thin.edcs.beta = 2;
  thin.edcs.lambda = 1;
  ProtocolWorkspace ws;
  for (int run = 0; run < 2; ++run) {
    Rng rng(7);
    const std::uint64_t before = ws.counters().allocations;
    const EdcsMpcResult r =
        run_matching_rounds_edcs(el, roomy_config(4, 32), thin, 0, rng,
                                 nullptr, &ws);
    ASSERT_EQ(r.stats.per_round.size(), 2u);
    EXPECT_EQ(r.stats.per_round[1].workspace_allocations, 0u)
        << "run " << run << ": steady-state round grew workspace buffers";
    if (run == 1) {
      EXPECT_EQ(ws.counters().allocations, before)
          << "second run on a warm workspace grew buffers";
    }
    EXPECT_EQ(r.matching.size(), 35u);  // reuse must not change the result
  }
}

TEST(MpcEdcs, FlagsRoundTripIntoConfig) {
  {
    Options options("mpc_edcs_test");
    add_mpc_engine_flags(options);
    const char* argv[] = {"test"};
    options.parse(1, const_cast<char**>(argv));
    const EdcsRoundsConfig config = edcs_config_from_options(options);
    EXPECT_EQ(config.edcs.beta, 16u);  // the documented defaults
    EXPECT_EQ(config.edcs.lambda, 2u);
    EXPECT_TRUE(config.finish_maximal);
  }
  {
    Options options("mpc_edcs_test");
    add_mpc_engine_flags(options);
    const char* argv[] = {"test", "--mpc-edcs-beta=32", "--mpc-edcs-lambda=8",
                          "--mpc-edcs-finish-maximal=false"};
    options.parse(4, const_cast<char**>(argv));
    const EdcsRoundsConfig config = edcs_config_from_options(options);
    EXPECT_EQ(config.edcs.beta, 32u);
    EXPECT_EQ(config.edcs.lambda, 8u);
    EXPECT_FALSE(config.finish_maximal);
  }
}

TEST(MpcEdcsDeath, OutOfRangeFlagValuesExitStrictly) {
  {
    Options options("mpc_edcs_test");
    add_mpc_engine_flags(options);
    const char* argv[] = {"test", "--mpc-edcs-beta=1"};
    options.parse(2, const_cast<char**>(argv));
    EXPECT_EXIT(edcs_config_from_options(options),
                ::testing::ExitedWithCode(2), "mpc-edcs-beta");
  }
  {
    Options options("mpc_edcs_test");
    add_mpc_engine_flags(options);
    const char* argv[] = {"test", "--mpc-edcs-lambda=16"};
    options.parse(2, const_cast<char**>(argv));
    // lambda must stay strictly below beta (= default 16 here).
    EXPECT_EXIT(edcs_config_from_options(options),
                ::testing::ExitedWithCode(2), "mpc-edcs-lambda");
  }
}

}  // namespace
}  // namespace rcc
