// Executor-level tests of the augmenting round-combiner
// (mpc/augmenting_rounds.hpp): golden-seed pins of the matched edge sets and
// per-round communication words (the reshuffle-charge pinning pattern from
// PR 2 — future refactors diff against frozen behavior), thread-count
// determinism, ledger/budget accounting, certificate reporting, monotonicity
// in the round budget, and the flag plumbing.
#include "mpc/augmenting_rounds.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.hpp"
#include "matching/hopcroft_karp.hpp"
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

AugmentingMpcResult run_on(const EdgeList& graph, std::uint64_t seed,
                           ThreadPool* pool = nullptr,
                           std::size_t max_path_length = 3,
                           std::size_t max_rounds = 32) {
  AugmentingRoundsConfig aug;
  aug.max_path_length = max_path_length;
  Rng rng(seed);
  return run_matching_rounds_augmenting(graph, engine_config(graph, max_rounds),
                                        aug, /*left_size=*/0, rng, pool);
}

TEST(MpcAugmentingGolden, Seed7PinsMatchedEdgesAndPerRoundCommWords) {
  // crown_forest(4, 3): n = 24, optimum 12, paper-default k = 4 machines.
  // Every literal below is frozen behavior; a diff here means the partition,
  // search order, conflict resolution, or accounting changed.
  const AugmentingMpcResult r = run_on(crown_forest(4, 3), 7);
  const std::vector<Edge> expected = {
      {0, 5},   {1, 3},   {2, 4},   {6, 10},  {7, 11},  {8, 9},
      {12, 16}, {13, 17}, {14, 15}, {18, 22}, {19, 23}, {20, 21}};
  EXPECT_EQ(sorted_edges(r.matching), expected);
  EXPECT_EQ(r.matching.size(), 12u);
  EXPECT_TRUE(r.certified);
  EXPECT_EQ(r.total_augmentations, 12u);
  EXPECT_EQ(r.rounds, 4u);
  // Peak: the certificate round centralizes the 24-edge residual on machine
  // M (48 words) on top of its shard residency and the broadcast matching.
  EXPECT_EQ(r.max_memory_words, 76u);
  ASSERT_EQ(r.stats.per_round.size(), 4u);
  const std::vector<std::uint64_t> comm = {40, 16, 4, 0};
  const std::vector<std::size_t> augs = {8, 3, 1, 0};
  for (std::size_t i = 0; i < comm.size(); ++i) {
    EXPECT_EQ(r.stats.per_round[i].comm_words, comm[i]) << "round " << i;
    EXPECT_EQ(r.stats.per_round[i].augmentations, augs[i]) << "round " << i;
  }
}

TEST(MpcAugmentingGolden, Seed8PinsMatchedEdgesAndPerRoundCommWords) {
  const AugmentingMpcResult r = run_on(crown_forest(4, 3), 8);
  const std::vector<Edge> expected = {
      {0, 4},   {1, 5},   {2, 3},   {6, 10},  {7, 11},  {8, 9},
      {12, 16}, {13, 17}, {14, 15}, {18, 22}, {19, 23}, {20, 21}};
  EXPECT_EQ(sorted_edges(r.matching), expected);
  EXPECT_TRUE(r.certified);
  EXPECT_EQ(r.total_augmentations, 12u);
  EXPECT_EQ(r.rounds, 5u);
  EXPECT_EQ(r.max_memory_words, 92u);
  ASSERT_EQ(r.stats.per_round.size(), 5u);
  const std::vector<std::uint64_t> comm = {32, 12, 4, 0, 0};
  // Round 3 is a coordinator-sweep round: no machine shipped a path
  // (comm 0) yet one augmentation was applied — the rescue that keeps
  // every non-final round progressing.
  const std::vector<std::size_t> augs = {8, 2, 1, 1, 0};
  for (std::size_t i = 0; i < comm.size(); ++i) {
    EXPECT_EQ(r.stats.per_round[i].comm_words, comm[i]) << "round " << i;
    EXPECT_EQ(r.stats.per_round[i].augmentations, augs[i]) << "round " << i;
  }
}

TEST(MpcAugmentingGolden, PooledRunReproducesTheSeed7Pins) {
  // A four-thread machine phase must replay the frozen golden behavior bit
  // for bit: same matched edges, same per-round comm words, same ledger
  // peaks.
  const EdgeList el = crown_forest(4, 3);
  AugmentingRoundsConfig aug;
  aug.max_path_length = 3;
  const MpcEngineConfig config = engine_config(el, 32);
  ThreadPool pool(4);
  Rng rng(7);
  const AugmentingMpcResult r =
      run_matching_rounds_augmenting(el, config, aug, 0, rng, &pool);
  const std::vector<Edge> expected = {
      {0, 5},   {1, 3},   {2, 4},   {6, 10},  {7, 11},  {8, 9},
      {12, 16}, {13, 17}, {14, 15}, {18, 22}, {19, 23}, {20, 21}};
  EXPECT_EQ(sorted_edges(r.matching), expected);
  EXPECT_TRUE(r.certified);
  EXPECT_EQ(r.total_augmentations, 12u);
  EXPECT_EQ(r.rounds, 4u);
  EXPECT_EQ(r.max_memory_words, 76u);
  ASSERT_EQ(r.stats.per_round.size(), 4u);
  const std::vector<std::uint64_t> comm = {40, 16, 4, 0};
  for (std::size_t i = 0; i < comm.size(); ++i) {
    EXPECT_EQ(r.stats.per_round[i].comm_words, comm[i]) << "round " << i;
  }
}

TEST(MpcAugmenting, CertificateDoesNotGoStaleWhenLaterRoundsKeepWorking) {
  // Pin the certified_ratio lifecycle at the executor level: the augmenting
  // combiner certifies only when it also stops, so a reported ratio must
  // belong to the FINAL round. A capped run that never certified reports
  // 0.0 in both places, and a certified run reports the same bound in both.
  Rng gen_rng(75);
  const EdgeList el = random_bipartite(50, 50, 0.08, gen_rng);
  const AugmentingMpcResult certified = run_on(el, 75);
  ASSERT_TRUE(certified.certified);
  EXPECT_GT(certified.stats.certified_ratio, 0.0);
  // The certificate round is the last one: certifying implies request_stop,
  // so no later uncertified round can be attached to this ratio.
  EXPECT_EQ(certified.stats.per_round.back().augmentations, 0u);
  EXPECT_EQ(certified.stats.certified_ratio, certified.certified_ratio);

  const AugmentingMpcResult capped = run_on(el, 75, nullptr, 3, 1);
  if (!capped.certified) {
    EXPECT_EQ(capped.stats.certified_ratio, 0.0);
  }
}

TEST(MpcAugmenting, SeedForSeedDeterministicAcrossThreadCounts) {
  Rng gen_rng(40);
  const EdgeList el = gnp(400, 0.02, gen_rng);
  const AugmentingMpcResult seq = run_on(el, 40);
  for (std::size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    const AugmentingMpcResult par = run_on(el, 40, &pool);
    EXPECT_EQ(sorted_edges(seq.matching), sorted_edges(par.matching))
        << threads << " threads";
    EXPECT_EQ(seq.stats.mpc_rounds, par.stats.mpc_rounds);
    EXPECT_EQ(seq.stats.total_comm_words, par.stats.total_comm_words);
    EXPECT_EQ(seq.stats.max_memory_words, par.stats.max_memory_words);
    EXPECT_EQ(seq.total_augmentations, par.total_augmentations);
  }
}

TEST(MpcAugmenting, EveryAugmentationGrowsTheMatchingByOne) {
  for (std::uint64_t seed : {50u, 51u, 52u}) {
    Rng gen_rng(seed);
    const EdgeList el = gnp(300, 0.03, gen_rng);
    const AugmentingMpcResult r = run_on(el, seed);
    // The run starts from the empty matching and every applied path adds
    // exactly one edge, so the counters and the matching must agree.
    EXPECT_EQ(r.total_augmentations, r.matching.size());
    std::size_t per_round_sum = 0;
    for (const MpcRoundReport& round : r.stats.per_round) {
      per_round_sum += round.augmentations;
    }
    EXPECT_EQ(per_round_sum, r.total_augmentations);
    EXPECT_EQ(r.stats.total_augmentations, r.total_augmentations);
  }
}

TEST(MpcAugmenting, BudgetAndLedgerStayConsistent) {
  for (std::uint64_t seed : {60u, 61u}) {
    Rng gen_rng(seed);
    const EdgeList el = gnp(500, 0.05, gen_rng);
    const MpcEngineConfig config = engine_config(el, 32);
    const AugmentingMpcResult r = run_on(el, seed);
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
      EXPECT_EQ(r.stats.round_labels[i],
                "augmenting-round-" + std::to_string(i));
    }
  }
}

TEST(MpcAugmenting, AdversarialInputPaysTheReshuffleStep) {
  Rng gen_rng(62);
  const EdgeList el = gnp(200, 0.05, gen_rng);
  MpcEngineConfig config = engine_config(el, 8);
  config.input_already_random = false;
  AugmentingRoundsConfig aug;
  Rng rng(62);
  const AugmentingMpcResult r =
      run_matching_rounds_augmenting(el, config, aug, 0, rng);
  ASSERT_GE(r.stats.round_labels.size(), 2u);
  EXPECT_EQ(r.stats.round_labels[0], "re-partition");
  EXPECT_EQ(r.stats.round_labels[1], "augmenting-round-0");
  EXPECT_TRUE(r.certified);
}

TEST(MpcAugmenting, CertificateReportsTheRatioBound) {
  Rng gen_rng(70);
  const EdgeList el = random_bipartite(60, 60, 0.06, gen_rng);
  for (std::size_t length : {1u, 3u, 7u}) {
    const AugmentingMpcResult r = run_on(el, 70, nullptr, length);
    ASSERT_TRUE(r.certified) << "L=" << length;
    EXPECT_DOUBLE_EQ(r.certified_ratio,
                     1.0 + 2.0 / static_cast<double>(length + 1));
    EXPECT_EQ(r.stats.certified_ratio, r.certified_ratio);
  }
  // A run cut off by the round cap certifies nothing.
  const AugmentingMpcResult capped = run_on(el, 70, nullptr, 3, 1);
  if (!capped.certified) {
    EXPECT_EQ(capped.certified_ratio, 0.0);
    EXPECT_EQ(capped.stats.certified_ratio, 0.0);
  }
}

TEST(MpcAugmenting, RoundCapShortCircuitsWithoutCertificate) {
  // crown(3) with everything in one machine still needs >= 2 rounds (the
  // bootstrap round matches greedily, the trap needs one more); max_rounds=1
  // must return the uncertified bootstrap state.
  const EdgeList el = crown_forest(12, 3);
  const AugmentingMpcResult r = run_on(el, 9, nullptr, 3, 1);
  EXPECT_EQ(r.stats.engine_rounds, 1u);
  EXPECT_FALSE(r.certified);
  EXPECT_TRUE(r.matching.valid());
  EXPECT_GT(r.matching.size(), 0u);
}

/// A sparse random bipartite instance (300 + 300 vertices, average degree
/// 2.5) and its exact maximum matching size.
struct BipartiteCase {
  VertexId half = 300;
  EdgeList graph;
  std::size_t opt = 0;
};
BipartiteCase sparse_bipartite() {
  BipartiteCase c;
  Rng gen_rng(42);
  c.graph = random_bipartite(c.half, c.half, 2.5 / c.half, gen_rng);
  c.opt = hopcroft_karp(bipartite_graph(c.graph, c.half)).size();
  return c;
}

TEST(MpcAugmenting, SizeIsMonotoneInTheRoundBudget) {
  // A larger round budget never yields a smaller matching, and at the full
  // budget the default length-3 certificate's ratio 1.5 holds against the
  // exact optimum.
  const BipartiteCase c = sparse_bipartite();
  std::size_t previous = 0;
  for (std::size_t rounds : {1u, 2u, 4u, 8u, 16u, 24u}) {
    Rng rng(42);
    const AugmentingMpcResult r = run_matching_rounds_augmenting(
        c.graph, engine_config(c.graph, rounds), AugmentingRoundsConfig{},
        c.half, rng);
    EXPECT_GE(r.matching.size(), previous) << rounds << " rounds";
    previous = r.matching.size();
  }
  EXPECT_LE(2 * c.opt, 3 * previous);  // opt / |M| <= 1.5 at 24 rounds
}

TEST(MpcAugmenting, EveryEpsilonStopsOnACertificateItSatisfies) {
  // With a generous round budget each (1+eps) target stops on its
  // certificate, and the realized ratio is within the certified one.
  const BipartiteCase c = sparse_bipartite();
  for (double epsilon : {1.0, 0.5, 1.0 / 3.0, 0.25}) {
    const AugmentingRoundsConfig aug =
        AugmentingRoundsConfig::for_epsilon(epsilon);
    Rng rng(42);
    const AugmentingMpcResult r = run_matching_rounds_augmenting(
        c.graph, engine_config(c.graph, 256), aug, c.half, rng);
    EXPECT_TRUE(r.certified) << "eps=" << epsilon;
    EXPECT_LE(static_cast<double>(c.opt) /
                  static_cast<double>(r.matching.size()),
              aug.certified_ratio() + 1e-9)
        << "eps=" << epsilon;
  }
}

TEST(MpcAugmenting, FlagsRoundTripIntoConfig) {
  {
    Options options("mpc_augmenting_test");
    add_mpc_engine_flags(options);
    const char* argv[] = {"test", "--mpc-max-path-length=7"};
    options.parse(2, const_cast<char**>(argv));
    const AugmentingRoundsConfig config =
        augmenting_config_from_options(options);
    EXPECT_EQ(config.max_path_length, 7u);
    EXPECT_DOUBLE_EQ(config.certified_ratio(), 1.25);
  }
  {
    // A positive epsilon overrides the explicit length: eps = 0.5 needs
    // k+1 = 2 augmentation slots, i.e. length cap 3.
    Options options("mpc_augmenting_test");
    add_mpc_engine_flags(options);
    const char* argv[] = {"test", "--mpc-epsilon=0.5",
                          "--mpc-max-path-length=9"};
    options.parse(3, const_cast<char**>(argv));
    const AugmentingRoundsConfig config =
        augmenting_config_from_options(options);
    EXPECT_EQ(config.max_path_length, 3u);
    EXPECT_DOUBLE_EQ(config.certified_ratio(), 1.5);
  }
  EXPECT_EQ(AugmentingRoundsConfig::for_epsilon(1.0).max_path_length, 1u);
  EXPECT_EQ(AugmentingRoundsConfig::for_epsilon(0.25).max_path_length, 7u);
  EXPECT_EQ(AugmentingRoundsConfig::for_epsilon(0.3).max_path_length, 7u);
  // A vanishing epsilon clamps to a finite (odd) cap instead of overflowing.
  EXPECT_EQ(AugmentingRoundsConfig::for_epsilon(1e-30).max_path_length,
            1999999999u);
}

}  // namespace
}  // namespace rcc
