// Differential tests for the multi-round MPC executor (mpc/mpc_engine.hpp):
//
//   (a) iterating coreset rounds is monotone: the multi-round matching is
//       never smaller than the single-round one on the same instance/seed,
//   (b) per-machine memory accounting never exceeds the configured
//       s-per-machine budget (the ledger aborts on violation; the stats
//       must agree with it),
//   (c) every combiner's result is identical with no pool, a one-thread
//       pool, and a four-thread pool.
#include "mpc/mpc_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "evidence/partition/adversarial.hpp"
#include "graph/generators.hpp"
#include "matching/max_matching.hpp"
#include "mpc/coreset_mpc.hpp"
#include "mpc/filtering_mpc.hpp"
#include "partition/partition.hpp"
#include "util/options.hpp"
#include "util/thread_pool.hpp"

namespace rcc {
namespace {

std::vector<Edge> sorted_edges(const Matching& m) {
  EdgeList el = m.to_edge_list();
  el.sort();
  return el.edges();
}

/// The random-instance grid the differential assertions sweep.
struct Instance {
  const char* name;
  EdgeList edges;
  VertexId left_size;
};

/// Disjoint paths on 4 vertices. When a P4's middle edge survives piece-local
/// maximum matching but its outer edges land elsewhere, the round-1 union
/// can leave both endpoints of an outer edge unmatched — exactly the
/// survivor structure that makes further coreset rounds productive.
EdgeList p4_forest(VertexId paths) {
  EdgeList edges(4 * paths);
  for (VertexId i = 0; i < paths; ++i) {
    edges.add(4 * i, 4 * i + 1);
    edges.add(4 * i + 1, 4 * i + 2);
    edges.add(4 * i + 2, 4 * i + 3);
  }
  return edges;
}

std::vector<Instance> grid(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Instance> instances;
  instances.push_back({"gnp-sparse", gnp(600, 4.0 / 600, rng), 0});
  instances.push_back({"gnp-dense", gnp(200, 0.15, rng), 0});
  instances.push_back({"bipartite", random_bipartite(100, 120, 0.08, rng), 100});
  const HubGadget hub = hub_gadget(96, 12);
  instances.push_back({"hub-gadget", hub.edges, hub.left_size});
  instances.push_back({"star-forest", star_forest(10, 12), 0});
  instances.push_back({"p4-forest", p4_forest(100), 0});
  return instances;
}

MpcEngineConfig engine_config(const EdgeList& graph, std::size_t max_rounds,
                              bool input_already_random) {
  MpcEngineConfig config;
  config.mpc = MpcConfig::paper_default(graph.num_vertices());
  config.max_rounds = max_rounds;
  config.input_already_random = input_already_random;
  return config;
}

TEST(MpcReshuffle, SenderChargesMatchTheMaterializedPlacement) {
  // mpc_reshuffle_round charges sender chunks arithmetically instead of
  // materializing the adversarial placement; the arithmetic must agree with
  // the chunk sizes sorted_chunk_partition actually produces.
  for (std::size_t k : {1u, 3u, 7u, 16u}) {
    Rng gen_rng(60);
    const EdgeList el = gnp(200, 0.05, gen_rng);
    MpcConfig cfg{k, std::uint64_t{1} << 30};

    MpcLedger ledger(cfg);
    mpc_reshuffle_round(el.num_edges(), std::vector<std::size_t>(k, 0),
                        ledger);

    MpcLedger expected(cfg);
    expected.begin_round("re-partition");
    const std::vector<EdgeList> placed = sorted_chunk_partition(el, k);
    for (std::size_t j = 0; j < k; ++j) {
      expected.charge(j, 2 * placed[j].num_edges());
    }
    EXPECT_EQ(ledger.max_memory_words(), expected.max_memory_words())
        << "k=" << k;
    EXPECT_EQ(ledger.round_peak_words(), expected.round_peak_words())
        << "k=" << k;
  }
}

TEST(MpcReshuffle, ReceiverChargesAreTheDeliveredShardSizes) {
  // Sender chunks of 100 edges over 4 machines are 25 each; the peak is the
  // machine that also receives the largest delivery.
  MpcLedger ledger(MpcConfig{4, 1 << 20});
  mpc_reshuffle_round(100, {10, 20, 30, 40}, ledger);
  EXPECT_EQ(ledger.rounds(), 1u);
  EXPECT_EQ(ledger.round_labels()[0], "re-partition");
  EXPECT_EQ(ledger.round_peak_words()[0], 2u * 25 + 2u * 40);
}

TEST(MpcReshuffle, AdversarialRunsDeclareTheShuffleStep) {
  Rng gen_rng(62);
  const EdgeList el = gnp(300, 0.1, gen_rng);
  MpcEngineConfig config;
  config.mpc = MpcConfig::paper_default(el.num_vertices());
  config.max_rounds = 1;
  config.input_already_random = false;
  Rng rng(62);
  const CoresetMpcMatchingResult r =
      coreset_mpc_matching_rounds(el, config, 0, rng);
  ASSERT_EQ(r.stats.round_labels.size(), 2u);
  EXPECT_EQ(r.stats.round_labels[0], "re-partition");
  // The shuffle step holds at least one sender chunk on some machine.
  const std::size_t k = config.mpc.num_machines;
  EXPECT_GE(r.stats.round_peak_words[0],
            2 * ((el.num_edges() + k - 1) / k));
}

TEST(MpcRoundsMonotone, MultiRoundMatchingNeverSmallerThanSingleRound) {
  for (std::uint64_t seed : {10u, 11u, 12u}) {
    for (const Instance& inst : grid(seed)) {
      const std::size_t opt =
          maximum_matching_size(inst.edges, inst.left_size);
      Rng single_rng(seed);
      const CoresetMpcMatchingResult single = coreset_mpc_matching_rounds(
          inst.edges, engine_config(inst.edges, 1, true), inst.left_size,
          single_rng);
      Rng multi_rng(seed);
      const CoresetMpcMatchingResult multi = coreset_mpc_matching_rounds(
          inst.edges, engine_config(inst.edges, 4, true), inst.left_size,
          multi_rng);
      // Round 0 of the multi-round run replays the single-round protocol
      // draw-for-draw; later rounds only extend the matching.
      EXPECT_GE(multi.matching.size(), single.matching.size())
          << inst.name << " seed=" << seed;
      EXPECT_LE(multi.matching.size(), opt);
      EXPECT_TRUE(multi.matching.valid());
      EXPECT_TRUE(multi.matching.subset_of(inst.edges));
    }
  }
}

TEST(MpcRoundsMonotone, MultiRoundStrictlyImprovesOnPathForest) {
  // Deterministic for the fixed seeds: the round-1 composition strands some
  // P4 outer edges, the second round picks them up and reaches the optimum.
  const EdgeList el = p4_forest(100);
  const std::size_t opt = maximum_matching_size(el);
  for (std::uint64_t seed : {10u, 11u, 12u}) {
    Rng single_rng(seed);
    const CoresetMpcMatchingResult single = coreset_mpc_matching_rounds(
        el, engine_config(el, 1, true), 0, single_rng);
    Rng multi_rng(seed);
    const CoresetMpcMatchingResult multi = coreset_mpc_matching_rounds(
        el, engine_config(el, 6, true), 0, multi_rng);
    EXPECT_LT(single.matching.size(), opt) << "seed=" << seed;
    EXPECT_GT(multi.matching.size(), single.matching.size()) << "seed=" << seed;
    EXPECT_EQ(multi.matching.size(), opt) << "seed=" << seed;
    EXPECT_GE(multi.stats.engine_rounds, 2u);
  }
}

TEST(MpcRoundsMonotone, IteratedRoundsSaturateThePerfectMatching) {
  // On a bipartite graph with a perfect matching the single round is lossy
  // for small k but iteration must close the gap to maximality: after the
  // final round no survivor edge has two unmatched endpoints.
  Rng gen_rng(42);
  const VertexId half = 150;
  const EdgeList el = random_bipartite(half, half, 0.05, gen_rng);
  MpcEngineConfig config = engine_config(el, 8, true);
  Rng rng(42);
  const CoresetMpcMatchingResult r =
      coreset_mpc_matching_rounds(el, config, half, rng);
  EXPECT_TRUE(r.matching.valid());
  const EdgeList open = el.filter([&](const Edge& e) {
    return !r.matching.is_matched(e.u) && !r.matching.is_matched(e.v);
  });
  EXPECT_TRUE(open.empty() || r.stats.engine_rounds == 8u);
  EXPECT_TRUE(r.matching.maximal_in(el) || r.stats.engine_rounds == 8u);
}

TEST(MpcRoundsBudget, PerMachineMemoryStaysWithinConfiguredBudget) {
  for (std::uint64_t seed : {20u, 21u}) {
    for (const Instance& inst : grid(seed)) {
      MpcEngineConfig config = engine_config(inst.edges, 3, false);
      Rng rng(seed);
      const CoresetMpcMatchingResult r = coreset_mpc_matching_rounds(
          inst.edges, config, inst.left_size, rng);
      // The ledger aborts on any violation, so reaching here already proves
      // the cap held; the reported stats must tell the same story.
      EXPECT_LE(r.stats.max_memory_words, config.mpc.memory_words)
          << inst.name;
      EXPECT_EQ(r.stats.round_peak_words.size(), r.stats.round_labels.size());
      std::uint64_t peak = 0;
      for (std::uint64_t words : r.stats.round_peak_words) {
        EXPECT_LE(words, config.mpc.memory_words);
        peak = std::max(peak, words);
      }
      EXPECT_EQ(peak, r.stats.max_memory_words);
      for (const MpcRoundReport& round : r.stats.per_round) {
        EXPECT_LE(round.peak_machine_words, config.mpc.memory_words);
      }
    }
  }
}

TEST(MpcRoundsReports, PerRoundLedgerIsConsistent) {
  Rng gen_rng(30);
  const EdgeList el = gnp(500, 0.05, gen_rng);
  MpcEngineConfig config = engine_config(el, 4, true);
  config.early_stop = false;
  Rng rng(30);
  const CoresetMpcMatchingResult r =
      coreset_mpc_matching_rounds(el, config, 0, rng);
  ASSERT_EQ(r.stats.per_round.size(), r.stats.engine_rounds);
  ASSERT_GE(r.stats.engine_rounds, 1u);
  EXPECT_EQ(r.stats.per_round.front().active_edges, el.num_edges());
  std::uint64_t total_comm = 0;
  for (std::size_t i = 0; i < r.stats.per_round.size(); ++i) {
    const MpcRoundReport& round = r.stats.per_round[i];
    EXPECT_EQ(round.round_index, i);
    EXPECT_LE(round.surviving_edges, round.active_edges);
    if (i + 1 < r.stats.per_round.size()) {
      EXPECT_EQ(r.stats.per_round[i + 1].active_edges, round.surviving_edges);
    }
    total_comm += round.comm_words;
  }
  EXPECT_EQ(total_comm, r.stats.total_comm_words);
  EXPECT_EQ(r.stats.mpc_rounds, r.stats.round_labels.size());
}

TEST(MpcRoundsEarlyStop, RoundThatShrinksNothingStopsTheRun) {
  // The one stagnation rule: with early_stop on, a round whose survivors are
  // as many as its input ends the run, whatever the cap.
  Rng gen_rng(80);
  const EdgeList el = gnp(200, 0.05, gen_rng);
  MpcEngineConfig config = engine_config(el, 10, true);
  ASSERT_TRUE(config.early_stop);
  const auto build = [](EdgeSpan piece, const PartitionContext&, Rng&) {
    return piece.num_edges();  // summary: a count, nothing else
  };
  const auto account = [](std::size_t) { return MessageSize{0, 1}; };
  struct RecirculatingFold {
    void absorb(std::size_t&, std::size_t, MpcRoundContext&) {}
    EdgeList finish(std::vector<std::size_t>&, MpcRoundContext& ctx, Rng&) {
      return ctx.active_edges().to_edge_list();
    }
  } fold;
  Rng rng(80);
  const MpcExecutionStats stats =
      run_mpc_rounds(el, config, 0, rng, nullptr, build, account, fold);
  EXPECT_EQ(stats.engine_rounds, 1u);
  EXPECT_EQ(stats.per_round.front().surviving_edges, el.num_edges());
}

TEST(MpcRoundsEarlyStop, DisabledEarlyStopStillRunsToTheCap) {
  Rng gen_rng(81);
  const EdgeList el = gnp(100, 0.05, gen_rng);
  MpcEngineConfig config = engine_config(el, 5, true);
  config.early_stop = false;
  const auto build = [](EdgeSpan piece, const PartitionContext&, Rng&) {
    return piece.num_edges();
  };
  const auto account = [](std::size_t) { return MessageSize{0, 1}; };
  struct RecirculatingFold {
    void absorb(std::size_t&, std::size_t, MpcRoundContext&) {}
    EdgeList finish(std::vector<std::size_t>&, MpcRoundContext& ctx, Rng&) {
      return ctx.active_edges().to_edge_list();
    }
  } fold;
  Rng rng(81);
  const MpcExecutionStats stats =
      run_mpc_rounds(el, config, 0, rng, nullptr, build, account, fold);
  EXPECT_EQ(stats.engine_rounds, 5u);
}

TEST(MpcRoundsThreadInvariance, CoresetMatchingIsIdenticalAcrossPoolShapes) {
  ThreadPool one(1);
  ThreadPool four(4);
  for (std::uint64_t seed : {90u, 91u}) {
    for (const Instance& inst : grid(seed)) {
      const MpcEngineConfig cfg = engine_config(inst.edges, 4, true);
      Rng base_rng(seed);
      const CoresetMpcMatchingResult base = coreset_mpc_matching_rounds(
          inst.edges, cfg, inst.left_size, base_rng);
      for (ThreadPool* pool : {&one, &four}) {
        Rng rng(seed);
        const CoresetMpcMatchingResult got = coreset_mpc_matching_rounds(
            inst.edges, cfg, inst.left_size, rng, pool);
        EXPECT_EQ(sorted_edges(base.matching), sorted_edges(got.matching))
            << inst.name << " seed=" << seed << " threads=" << pool->size();
        EXPECT_EQ(base.rounds, got.rounds);
        EXPECT_EQ(base.stats.total_comm_words, got.stats.total_comm_words);
        EXPECT_EQ(base.max_memory_words, got.max_memory_words);
        EXPECT_EQ(base.stats.engine_rounds, got.stats.engine_rounds);
        EXPECT_EQ(base.stats.round_peak_words, got.stats.round_peak_words);
      }
    }
  }
}

TEST(MpcRoundsThreadInvariance, VertexCoverIsIdenticalAcrossPoolShapes) {
  ThreadPool one(1);
  ThreadPool four(4);
  for (std::uint64_t seed : {92u, 93u}) {
    for (const Instance& inst : grid(seed)) {
      const MpcEngineConfig cfg = engine_config(inst.edges, 3, true);
      Rng base_rng(seed);
      const CoresetMpcVcResult base =
          coreset_mpc_vertex_cover_rounds(inst.edges, cfg, base_rng);
      for (ThreadPool* pool : {&one, &four}) {
        Rng rng(seed);
        const CoresetMpcVcResult got =
            coreset_mpc_vertex_cover_rounds(inst.edges, cfg, rng, pool);
        EXPECT_EQ(base.cover.vertices(), got.cover.vertices())
            << inst.name << " seed=" << seed << " threads=" << pool->size();
        EXPECT_EQ(base.rounds, got.rounds);
        EXPECT_EQ(base.max_memory_words, got.max_memory_words);
      }
    }
  }
}

TEST(MpcRoundsThreadInvariance, FilteringIsIdenticalAcrossPoolShapes) {
  ThreadPool one(1);
  ThreadPool four(4);
  for (std::uint64_t seed : {94u, 95u}) {
    Rng gen_rng(seed);
    const EdgeList el = gnp(400, 0.08, gen_rng);
    MpcEngineConfig cfg;
    cfg.mpc.num_machines = 8;
    cfg.mpc.memory_words = 2 * 3000;
    cfg.max_rounds = 1000;

    Rng base_rng(seed);
    const FilteringMpcResult base = filtering_mpc_rounds(el, cfg, base_rng);
    // A round's input edges all have both endpoints unmatched, so every
    // round that matches an edge also filters it: the survivors shrink each
    // round and the executor's stagnation stop never cuts the run short.
    EXPECT_TRUE(base.completed);
    for (const MpcRoundReport& round : base.stats.per_round) {
      EXPECT_LT(round.surviving_edges, round.active_edges)
          << "seed=" << seed << " round=" << round.round_index;
    }
    for (ThreadPool* pool : {&one, &four}) {
      Rng rng(seed);
      const FilteringMpcResult got = filtering_mpc_rounds(el, cfg, rng, pool);
      EXPECT_EQ(sorted_edges(base.maximal_matching),
                sorted_edges(got.maximal_matching))
          << "seed=" << seed << " threads=" << pool->size();
      EXPECT_EQ(base.rounds, got.rounds);
      EXPECT_EQ(base.filter_iterations, got.filter_iterations);
      EXPECT_EQ(base.max_memory_words, got.max_memory_words);
      EXPECT_TRUE(got.completed);
    }
  }
}

TEST(MpcRoundsEarlyStop, StopsWhenNoEdgesSurvive) {
  // A single star saturates after one round: the center gets matched, every
  // remaining edge touches it, no survivors remain.
  const EdgeList el = star(64);
  MpcEngineConfig config = engine_config(el, 10, true);
  Rng rng(31);
  const CoresetMpcMatchingResult r =
      coreset_mpc_matching_rounds(el, config, 0, rng);
  EXPECT_EQ(r.matching.size(), 1u);
  EXPECT_LT(r.stats.engine_rounds, 10u);
}

TEST(MpcRoundsEarlyStop, MultiRoundVertexCoverStaysFeasible) {
  for (std::uint64_t seed : {33u, 34u}) {
    for (const Instance& inst : grid(seed)) {
      Rng rng(seed);
      const CoresetMpcVcResult r = coreset_mpc_vertex_cover_rounds(
          inst.edges, engine_config(inst.edges, 3, true), rng);
      EXPECT_TRUE(r.cover.covers(inst.edges)) << inst.name;
      EXPECT_LE(r.stats.engine_rounds, 3u);
      EXPECT_LE(r.stats.max_memory_words,
                MpcConfig::paper_default(inst.edges.num_vertices()).memory_words);
    }
  }
}

TEST(MpcRoundsDeterminism, ThreadPoolAndSequentialRunsAgree) {
  Rng gen_rng(40);
  const EdgeList el = gnp(800, 0.02, gen_rng);
  const MpcEngineConfig config = engine_config(el, 3, true);
  Rng seq_rng(40);
  const CoresetMpcMatchingResult seq =
      coreset_mpc_matching_rounds(el, config, 0, seq_rng);
  ThreadPool pool(4);
  Rng par_rng(40);
  const CoresetMpcMatchingResult par =
      coreset_mpc_matching_rounds(el, config, 0, par_rng, &pool);
  EXPECT_EQ(sorted_edges(seq.matching), sorted_edges(par.matching));
  EXPECT_EQ(seq.stats.mpc_rounds, par.stats.mpc_rounds);
  EXPECT_EQ(seq.stats.max_memory_words, par.stats.max_memory_words);
}

TEST(MpcRoundsFiltering, RoundCapLeavesRunMarkedIncomplete) {
  Rng gen_rng(50);
  const EdgeList el = gnp(400, 0.2, gen_rng);  // ~16k edges
  MpcEngineConfig config;
  config.mpc.num_machines = 8;
  config.mpc.memory_words = 2 * 800;  // needs several filter iterations
  config.max_rounds = 1;              // cap before the residual can fit
  Rng rng(50);
  const FilteringMpcResult r = filtering_mpc_rounds(el, config, rng);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.filter_iterations, 1u);
  EXPECT_TRUE(r.maximal_matching.valid());
  EXPECT_TRUE(r.maximal_matching.subset_of(el));
}

TEST(MpcRoundsOptions, FlagsRoundTripIntoConfig) {
  Options options("mpc_rounds_test");
  add_mpc_engine_flags(options);
  const char* argv[] = {"test", "--mpc-machines=6", "--mpc-memory-budget=12345",
                        "--mpc-rounds=4", "--mpc-random-input=false",
                        "--mpc-early-stop=false"};
  options.parse(6, const_cast<char**>(argv));
  const MpcEngineConfig config = mpc_engine_config_from_options(options, 1000);
  EXPECT_EQ(config.mpc.num_machines, 6u);
  EXPECT_EQ(config.mpc.memory_words, 12345u);
  EXPECT_EQ(config.max_rounds, 4u);
  EXPECT_FALSE(config.input_already_random);
  EXPECT_FALSE(config.early_stop);
}

TEST(MpcRoundsOptionsDeath, MisspelledBooleansExitStrictly) {
  // Regression: any value outside the recognised spellings used to read as
  // false, so "True" silently charged a re-partition round and "ture"
  // silently disabled the early stop.
  for (const auto& [flag, value] :
       {std::pair<std::string, std::string>{"mpc-random-input", "True"},
        std::pair<std::string, std::string>{"mpc-early-stop", "ture"}}) {
    Options options("mpc_rounds_test");
    add_mpc_engine_flags(options);
    const std::string arg = "--" + flag + "=" + value;
    const char* argv[] = {"test", arg.c_str()};
    options.parse(2, const_cast<char**>(argv));
    EXPECT_EXIT(mpc_engine_config_from_options(options, 1000),
                ::testing::ExitedWithCode(2),
                "flag --" + flag + ": '" + value + "' is not a boolean")
        << flag;
  }
}

TEST(MpcRoundsOptions, ZeroFlagsFallBackToPaperDefault) {
  Options options("mpc_rounds_test");
  add_mpc_engine_flags(options);
  const char* argv[] = {"test"};
  options.parse(1, const_cast<char**>(argv));
  const MpcEngineConfig config = mpc_engine_config_from_options(options, 10000);
  const MpcConfig fallback = MpcConfig::paper_default(10000);
  EXPECT_EQ(config.mpc.num_machines, fallback.num_machines);
  EXPECT_EQ(config.mpc.memory_words, fallback.memory_words);
  EXPECT_EQ(config.max_rounds, 1u);
  // Flag defaults agree with a directly-constructed MpcEngineConfig.
  EXPECT_EQ(config.input_already_random, MpcEngineConfig{}.input_already_random);
  EXPECT_EQ(config.early_stop, MpcEngineConfig{}.early_stop);
}

}  // namespace
}  // namespace rcc
