// EXP5 (Theorem 3 / R2a): on D_Matching, an s-item coreset recovers only
// ~s * Theta(alpha/k) planted edges per machine regardless of its local
// selection policy, so alpha-approximation needs s = Omega(n/alpha^2)...
// while the unbudgeted maximum-matching coreset (s ~ n/alpha + n/k) recovers
// a constant fraction.
//
// Table: budget sweep x policy -> recovered planted edges and composed
// matching size. The paper's shape: recovery linear in s, flat across
// policies (indistinguishability), approximation stuck at ~alpha until
// s ~ n/alpha.
#include <memory>

#include "bench_common.hpp"
#include "coreset/budget.hpp"
#include "coreset/compose.hpp"
#include "coreset/matching_coresets.hpp"
#include "distributed/protocol.hpp"
#include "lower_bounds/hard_instances.hpp"
#include "lower_bounds/probes.hpp"
#include "matching/max_matching.hpp"
#include "partition/sharded_partition.hpp"

namespace rcc::bench {

bool run_lb_matching(const ExperimentSetup& setup) {
  Rng rng(setup.seed);
  const auto n = static_cast<VertexId>(40000 * setup.scale);
  const double alpha = 10.0;
  const std::size_t k = 50;
  const DMatchingInstance inst = make_d_matching(n, alpha, k, rng);
  const std::size_t opt = maximum_matching_size(inst.edges, inst.left_size());
  // One random partition serves every row; the rows differ only in coreset.
  const ShardedPartition<Edge> parts = shard_random(inst.edges, k, rng);
  const auto pieces = pieces_of(parts);

  std::printf("n=%u alpha=%.0f k=%zu MM(G)=%zu planted=%zu n/alpha^2=%.0f\n\n",
              n, alpha, k, opt, inst.planted_matching_size(),
              n / (alpha * alpha));

  TablePrinter table({"budget s", "policy", "recovered-planted",
                      "recovered/(s*k*alpha/k)", "composed-MM", "ratio"});
  bool linear_in_s = true;
  std::size_t recovered_at_min_budget = 0;
  const std::size_t s_unit = static_cast<std::size_t>(n / (alpha * alpha));
  for (std::size_t mult : {1, 2, 4, 8}) {
    const std::size_t budget = mult * s_unit;
    for (BudgetPolicy policy :
         {BudgetPolicy::kRandom, BudgetPolicy::kLowDegreeFirst,
          BudgetPolicy::kHighDegreeFirst}) {
      auto inner = std::make_shared<MaximumMatchingCoreset>();
      const BudgetedMatchingCoreset coreset(inner, budget, policy);
      const MatchingProtocolResult r = run_matching_protocol_on_partition(
          pieces, parts.num_vertices(), coreset, ComposeSolver::kMaximum,
          inst.left_size(), rng);
      std::size_t recovered = 0;
      for (const auto& s : r.summaries) recovered += hidden_edges_in(s, inst);
      if (mult == 1 && policy == BudgetPolicy::kRandom) {
        recovered_at_min_budget = recovered;
      }
      if (mult == 8 && policy == BudgetPolicy::kRandom) {
        const double growth = static_cast<double>(recovered) /
                              std::max<std::size_t>(recovered_at_min_budget, 1);
        linear_in_s &= growth > 4.0 && growth < 16.0;  // ~8x for 8x budget
      }
      const double normalized = static_cast<double>(recovered) /
                                (static_cast<double>(budget) * alpha);
      table.add_row(
          {TablePrinter::fmt(std::uint64_t{budget}), budget_policy_name(policy),
           TablePrinter::fmt(std::uint64_t{recovered}),
           TablePrinter::fmt_ratio(normalized),
           TablePrinter::fmt(std::uint64_t{r.solution.size()}),
           TablePrinter::fmt_ratio(static_cast<double>(opt) /
                                   static_cast<double>(r.solution.size()))});
    }
  }
  // Reference row: the unbudgeted Theorem 1 coreset.
  {
    const MaximumMatchingCoreset full;
    const MatchingProtocolResult r = run_matching_protocol_on_partition(
        pieces, parts.num_vertices(), full, ComposeSolver::kMaximum,
        inst.left_size(), rng);
    std::size_t recovered = 0;
    for (const auto& s : r.summaries) recovered += hidden_edges_in(s, inst);
    table.add_row({"unbudgeted", "maximum-matching",
                   TablePrinter::fmt(std::uint64_t{recovered}), "-",
                   TablePrinter::fmt(std::uint64_t{r.solution.size()}),
                   TablePrinter::fmt_ratio(static_cast<double>(opt) /
                                           static_cast<double>(r.solution.size()))});
  }
  table.print();
  // Verdict: planted-edge recovery is linear in the budget and capped by the
  // alpha/k indistinguishability rate for every policy; only the unbudgeted
  // coreset reaches a constant ratio.
  return linear_in_s;
}

}  // namespace rcc::bench
