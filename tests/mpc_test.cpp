// MPC simulator tests: the 2-round coreset algorithm (R5) versus the
// filtering baseline of Lattanzi et al.
#include "mpc/coreset_mpc.hpp"
#include "mpc/filtering_mpc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "graph/generators.hpp"
#include "matching/max_matching.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

TEST(MpcConfig, PaperDefaultScalesAsNSqrtN) {
  const MpcConfig cfg = MpcConfig::paper_default(10000);
  EXPECT_EQ(cfg.num_machines, 100u);
  // ~ c * n^{1.5} * log n words.
  EXPECT_GT(cfg.memory_words, 1000000u);
}

TEST(MpcLedger, TracksRoundsAndPeakMemory) {
  MpcLedger ledger(MpcConfig{4, 1000});
  ledger.begin_round("a");
  ledger.charge(0, 300);
  ledger.charge(0, 200);
  ledger.charge(1, 100);
  ledger.begin_round("b");
  ledger.charge(2, 400);
  EXPECT_EQ(ledger.rounds(), 2u);
  EXPECT_EQ(ledger.max_memory_words(), 500u);
  EXPECT_EQ(ledger.round_labels()[0], "a");
}

TEST(MpcLedgerDeathTest, MemoryCapEnforced) {
  MpcLedger ledger(MpcConfig{2, 100});
  ledger.begin_round("r");
  ledger.charge(0, 60);
  EXPECT_DEATH(ledger.charge(0, 60), "RCC_CHECK");
}

TEST(MpcLedgerDeathTest, ChargeBeforeRoundAborts) {
  MpcLedger ledger(MpcConfig{2, 100});
  EXPECT_DEATH(ledger.charge(0, 1), "RCC_CHECK");
}

TEST(CoresetMpc, TwoRoundsFromAdversarialPlacement) {
  Rng rng(1);
  const VertexId n = 4096;
  const EdgeList el = gnp(n, 6.0 / n, rng);
  const MpcConfig cfg = MpcConfig::paper_default(n);
  const CoresetMpcMatchingResult r = coreset_mpc_matching_rounds(
      el, {.mpc = cfg, .max_rounds = 1, .input_already_random = false}, 0,
      rng);
  EXPECT_EQ(r.rounds, 2u);
  EXPECT_TRUE(r.matching.valid());
  EXPECT_TRUE(r.matching.subset_of(el));
  EXPECT_LE(r.max_memory_words, cfg.memory_words);
  EXPECT_GE(9 * r.matching.size(), maximum_matching_size(el));
}

TEST(CoresetMpc, OneRoundWhenInputAlreadyRandom) {
  Rng rng(2);
  const VertexId n = 4096;
  const EdgeList el = gnp(n, 6.0 / n, rng);
  const MpcConfig cfg = MpcConfig::paper_default(n);
  const CoresetMpcMatchingResult r =
      coreset_mpc_matching_rounds(el, {.mpc = cfg, .max_rounds = 1}, 0, rng);
  EXPECT_EQ(r.rounds, 1u);
  EXPECT_TRUE(r.matching.valid());
}

TEST(CoresetMpc, VertexCoverTwoRoundsAndFeasible) {
  Rng rng(3);
  const VertexId n = 4096;
  const EdgeList el = gnp(n, 6.0 / n, rng);
  const MpcConfig cfg = MpcConfig::paper_default(n);
  const CoresetMpcVcResult r = coreset_mpc_vertex_cover_rounds(
      el, {.mpc = cfg, .max_rounds = 1, .input_already_random = false}, rng);
  EXPECT_EQ(r.rounds, 2u);
  EXPECT_TRUE(r.cover.covers(el));
  EXPECT_LE(r.max_memory_words, cfg.memory_words);
}

TEST(FilteringMpc, ProducesMaximalMatchingAndCover) {
  Rng rng(4);
  const VertexId n = 1000;
  const EdgeList el = gnp(n, 0.08, rng);  // ~40k edges
  MpcConfig cfg;
  cfg.num_machines = 10;
  cfg.memory_words = 2 * 8000;  // 8k edges per machine: forces filtering
  const FilteringMpcResult r =
      filtering_mpc_rounds(el, {.mpc = cfg, .max_rounds = SIZE_MAX}, rng);
  EXPECT_TRUE(r.maximal_matching.maximal_in(el));
  EXPECT_TRUE(r.cover.covers(el));
  EXPECT_GE(r.filter_iterations, 1u);
  EXPECT_GE(r.rounds, 3u);  // at least one iteration (2 rounds) + finish
  EXPECT_LE(r.max_memory_words, cfg.memory_words);
}

TEST(FilteringMpc, SingleRoundWhenGraphFits) {
  Rng rng(5);
  const EdgeList el = gnp(500, 0.01, rng);
  MpcConfig cfg;
  cfg.num_machines = 4;
  cfg.memory_words = 10 * 2 * el.num_edges();
  const FilteringMpcResult r =
      filtering_mpc_rounds(el, {.mpc = cfg, .max_rounds = SIZE_MAX}, rng);
  EXPECT_EQ(r.filter_iterations, 0u);
  EXPECT_EQ(r.rounds, 1u);
  EXPECT_TRUE(r.maximal_matching.maximal_in(el));
}

TEST(FilteringMpc, TwoApproximationGuarantee) {
  Rng rng(6);
  const VertexId n = 800;
  const EdgeList el = gnp(n, 0.05, rng);
  MpcConfig cfg;
  cfg.num_machines = 8;
  cfg.memory_words = 2 * 5000;
  const FilteringMpcResult r =
      filtering_mpc_rounds(el, {.mpc = cfg, .max_rounds = SIZE_MAX}, rng);
  const std::size_t opt = maximum_matching_size(el);
  EXPECT_GE(2 * r.maximal_matching.size(), opt);
  EXPECT_LE(r.cover.size(), 2 * opt);
}

TEST(CoresetVsFiltering, CoresetUsesFewerRoundsAtPaperMemory) {
  // Memory ~ 3 n^{1.5} words (the paper's regime without the log slack):
  // the graph is denser than one machine's memory, so filtering must
  // iterate, while the coreset algorithm always finishes in 2 rounds.
  Rng rng(7);
  const VertexId n = 2000;
  const EdgeList el = gnp(n, 0.2, rng);  // ~400k edges
  MpcConfig cfg;
  cfg.num_machines = 45;  // ~sqrt(n)
  cfg.memory_words = static_cast<std::uint64_t>(
      3.0 * std::pow(static_cast<double>(n), 1.5));
  ASSERT_GT(2 * el.num_edges(), cfg.memory_words);  // filtering must iterate
  const CoresetMpcMatchingResult coreset = coreset_mpc_matching_rounds(
      el, {.mpc = cfg, .max_rounds = 1, .input_already_random = false}, 0,
      rng);
  const FilteringMpcResult filtering =
      filtering_mpc_rounds(el, {.mpc = cfg, .max_rounds = SIZE_MAX}, rng);
  EXPECT_EQ(coreset.rounds, 2u);
  EXPECT_GE(filtering.rounds, 3u);
  EXPECT_LT(coreset.rounds, filtering.rounds);
}

}  // namespace
}  // namespace rcc
