// End-to-end integration tests spanning generators, partitioning, coresets,
// protocols, probes, and the MPC simulator — the flows the examples and
// benches rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "coreset/matching_coresets.hpp"
#include "distributed/protocols.hpp"
#include "evidence/coreset/budget.hpp"
#include "evidence/lower_bounds/hard_instances.hpp"
#include "evidence/lower_bounds/probes.hpp"
#include "graph/generators.hpp"
#include "matching/max_matching.hpp"
#include "mpc/coreset_mpc.hpp"
#include "partition/sharded_partition.hpp"
#include "util/rng.hpp"
#include "vertex_cover/konig.hpp"

namespace rcc {
namespace {

// EXP5 in miniature: on D_Matching, the number of planted edges a budgeted
// protocol recovers grows linearly with the budget and does not depend on
// the (local) selection policy — the indistinguishability at the heart of
// Theorem 3.
TEST(Integration, BudgetedRecoveryIsLinearAndPolicyFree) {
  Rng rng(1);
  const VertexId n = 20000;
  const double alpha = 10.0;
  const std::size_t k = 40;
  const DMatchingInstance inst = make_d_matching(n, alpha, k, rng);
  const auto parts = shard_random(inst.edges, k, rng);

  auto recovered_with = [&](std::size_t budget, BudgetPolicy policy) {
    auto inner = std::make_shared<MaximumMatchingCoreset>();
    const BudgetedMatchingCoreset coreset(inner, budget, policy);
    std::size_t total = 0;
    for (std::size_t i = 0; i < k; ++i) {
      PartitionContext ctx{2 * n, k, i, inst.left_size()};
      total += hidden_edges_in(coreset.build(shard_span(parts, i), ctx, rng),
                               inst);
    }
    return total;
  };

  const std::size_t budget_small = 250;   // ~ n / alpha^2 * 1.25
  const std::size_t budget_large = 1000;  // 4x
  const std::size_t small = recovered_with(budget_small, BudgetPolicy::kRandom);
  const std::size_t large = recovered_with(budget_large, BudgetPolicy::kRandom);
  // Linear growth: 4x budget -> ~4x recovery (within a factor of 2 margin).
  const double growth = static_cast<double>(large) / std::max<std::size_t>(small, 1);
  EXPECT_GT(growth, 2.0);
  EXPECT_LT(growth, 8.0);

  // The *best* local policy — prefer degree-1 pairs, i.e. the induced
  // matching — still cannot exceed the indistinguishability cap: a budget-s
  // summary recovers at most s * Pr[induced edge is planted] per machine,
  // where that probability is (n - n/a)/k over the expected induced size.
  const std::size_t low = recovered_with(budget_small, BudgetPolicy::kLowDegreeFirst);
  const double planted_pm = (n - n / alpha) / static_cast<double>(k);
  const double induced_pm = planted_pm + (n / alpha) * std::exp(-2.0);
  const double cap = (planted_pm / induced_pm + 0.08) * budget_small * k;
  EXPECT_LE(static_cast<double>(low), cap);
  // And it is at least as good as random selection (sanity of the probe).
  EXPECT_GE(low + 20, small);
}

// The full (unbudgeted) coreset protocol on D_Matching achieves a constant
// factor even though budgeted ones cannot: the upper and lower bound sides
// of the paper on one instance family.
TEST(Integration, FullCoresetBeatsBudgetedOnDMatching) {
  Rng rng(2);
  const VertexId n = 10000;
  const double alpha = 8.0;
  const std::size_t k = 20;
  const DMatchingInstance inst = make_d_matching(n, alpha, k, rng);
  const std::size_t opt = maximum_matching_size(inst.edges, inst.left_size());

  const MatchingProtocolResult full =
      coreset_matching_protocol(inst.edges, k, inst.left_size(), rng, nullptr);
  EXPECT_GE(9 * full.solution.size(), opt);

  // A budget of n/alpha^2 per machine caps recovery around
  // k * budget * (alpha/k) = n/alpha planted edges; the composed matching is
  // then O(n/alpha) while opt ~ n.
  auto inner = std::make_shared<MaximumMatchingCoreset>();
  const std::size_t budget = static_cast<std::size_t>(n / (alpha * alpha));
  const BudgetedMatchingCoreset budgeted(inner, budget, BudgetPolicy::kRandom);
  const MatchingProtocolResult capped = run_matching_protocol(
      inst.edges, k, budgeted, ComposeSolver::kMaximum, inst.left_size(), rng,
      nullptr);
  EXPECT_LT(capped.solution.size() * 2, full.solution.size());
}

// D_VC: with o(n/alpha) budget the summary almost never contains e*, and the
// resulting cover misses it.
TEST(Integration, DVcSmallSummariesMissEStar) {
  Rng rng(3);
  const VertexId n = 8000;
  const double alpha = 8.0;
  const std::size_t k = 16;
  int missed = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    const DVcInstance inst = make_d_vc(n, alpha, k, rng);
    const auto parts = shard_random(inst.edges, k, rng);
    // Budgeted summary: s = (n/alpha)/20 random edges per machine.
    const std::size_t budget = static_cast<std::size_t>(n / alpha / 20.0);
    std::vector<EdgeList> summaries;
    for (std::size_t i = 0; i < k; ++i) {
      summaries.push_back(shard_span(parts, i).sample_edges(budget, rng));
    }
    const EdgeList summary_union = EdgeList::union_of(summaries);
    bool has_e_star = false;
    for (const Edge& e : summary_union) {
      if (e == inst.e_star) has_e_star = true;
    }
    if (!has_e_star) ++missed;
  }
  // e* survives a 1/20 subsample of its machine's edges w.p. ~1/20.
  EXPECT_GE(missed, trials / 2);
}

TEST(Integration, MpcAndSimultaneousAgreeOnQuality) {
  Rng rng(4);
  const VertexId n = 4000;
  const EdgeList el = gnp(n, 5.0 / n, rng);
  const std::size_t opt = maximum_matching_size(el);
  const MatchingProtocolResult sim =
      coreset_matching_protocol(el, 16, 0, rng, nullptr);
  const CoresetMpcMatchingResult mpc = coreset_mpc_matching_rounds(
      el,
      {.mpc = MpcConfig::paper_default(n),
       .max_rounds = 1,
       .input_already_random = false},
      0, rng);
  EXPECT_GE(9 * sim.solution.size(), opt);
  EXPECT_GE(9 * mpc.matching.size(), opt);
  // The two pipelines implement the same coreset; sizes are close.
  const double rel = static_cast<double>(sim.solution.size()) /
                     static_cast<double>(mpc.matching.size());
  EXPECT_GT(rel, 0.8);
  EXPECT_LT(rel, 1.25);
}

TEST(Integration, QuickstartFlow) {
  // The README quickstart, as a test: generate, run protocol, validate.
  Rng rng(42);
  const VertexId n = 2000;
  const EdgeList graph = gnp(n, 4.0 / n, rng);
  ThreadPool pool(4);
  const MatchingProtocolResult result =
      coreset_matching_protocol(graph, 8, 0, rng, &pool);
  EXPECT_TRUE(result.solution.valid());
  EXPECT_TRUE(result.solution.subset_of(graph));
  EXPECT_GT(result.solution.size(), 0u);
  EXPECT_EQ(result.comm.per_machine.size(), 8u);

  const VcProtocolResult vc = coreset_vc_protocol(graph, 8, rng, &pool);
  EXPECT_TRUE(vc.solution.covers(graph));
}

TEST(Integration, BipartiteExactPathUsedWhenTagged) {
  Rng rng(5);
  const VertexId side = 3000;
  const EdgeList el = random_bipartite(side, side, 2.0 / side, rng);
  // With left_size the coordinator runs Hopcroft-Karp; result must equal the
  // exact maximum matching of the union of coresets, which is at least the
  // per-piece maximum.
  const MatchingProtocolResult r =
      coreset_matching_protocol(el, 4, side, rng, nullptr);
  EXPECT_TRUE(r.solution.valid());
  const std::size_t opt = maximum_matching_size(el, side);
  EXPECT_GE(9 * r.solution.size(), opt);
}

}  // namespace
}  // namespace rcc
