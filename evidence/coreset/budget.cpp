#include "evidence/coreset/budget.hpp"

#include <algorithm>
#include <numeric>

namespace rcc {

const char* budget_policy_name(BudgetPolicy p) {
  switch (p) {
    case BudgetPolicy::kRandom: return "random";
    case BudgetPolicy::kFirst: return "first";
    case BudgetPolicy::kLowDegreeFirst: return "low-degree";
    case BudgetPolicy::kHighDegreeFirst: return "high-degree";
  }
  return "?";
}

EdgeList truncate_to_budget(const EdgeList& summary, EdgeSpan piece,
                            std::size_t budget, BudgetPolicy policy, Rng& rng) {
  if (summary.num_edges() <= budget) return summary;
  switch (policy) {
    case BudgetPolicy::kRandom:
      return summary.sample_edges(budget, rng);
    case BudgetPolicy::kFirst: {
      EdgeList out(summary.num_vertices());
      out.reserve(budget);
      for (std::size_t i = 0; i < budget; ++i) out.add(summary[i]);
      return out;
    }
    case BudgetPolicy::kLowDegreeFirst:
    case BudgetPolicy::kHighDegreeFirst: {
      const auto deg = piece.degrees();
      std::vector<std::size_t> idx(summary.num_edges());
      std::iota(idx.begin(), idx.end(), std::size_t{0});
      const bool low_first = policy == BudgetPolicy::kLowDegreeFirst;
      std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        const auto ka = deg[summary[a].u] + deg[summary[a].v];
        const auto kb = deg[summary[b].u] + deg[summary[b].v];
        return low_first ? ka < kb : ka > kb;
      });
      EdgeList out(summary.num_vertices());
      out.reserve(budget);
      for (std::size_t i = 0; i < budget; ++i) out.add(summary[idx[i]]);
      return out;
    }
  }
  return summary;  // unreachable
}

EdgeList BudgetedMatchingCoreset::build(EdgeSpan piece,
                                        const PartitionContext& ctx,
                                        Rng& rng) const {
  const EdgeList full = inner_->build(piece, ctx, rng);
  return truncate_to_budget(full, piece, budget_, policy_, rng);
}

std::string BudgetedMatchingCoreset::name() const {
  return inner_->name() + "/budget=" + std::to_string(budget_) + "/" +
         budget_policy_name(policy_);
}

}  // namespace rcc
