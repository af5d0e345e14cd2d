// EXP6 (Theorem 4 / R2b): on D_VC, a budget-s summary contains the hidden
// edge e* w.p. ~ s / |piece of e*'s machine| ~ 2 s alpha / n, so the
// summaries carry e* with constant probability only when s = Omega(n/alpha).
//
// Table: budget sweep -> empirical P[e* in some summary], P[composed cover
// feasible], and the cover size.
#include "bench_common.hpp"
#include "lower_bounds/hard_instances.hpp"
#include "lower_bounds/probes.hpp"
#include "partition/sharded_partition.hpp"
#include "vertex_cover/approx.hpp"

namespace rcc::bench {

bool run_lb_vc(const ExperimentSetup& setup) {
  Rng rng(setup.seed);
  const auto n = static_cast<VertexId>(20000 * setup.scale);
  const double alpha = 10.0;
  const std::size_t k = 40;
  const int trials = 12 * setup.reps;

  TablePrinter table({"budget s", "s/(n/alpha)", "P[e* in summary]",
                      "P[cover feasible]", "predicted", "avg cover size"});
  bool shape_ok = true;
  const double n_over_alpha = n / alpha;
  for (double frac : {0.05, 0.15, 0.4, 1.0, 3.0}) {
    const auto budget = static_cast<std::size_t>(frac * n_over_alpha);
    int has_e_star = 0, feasible = 0;
    double cover_total = 0.0;
    for (int t = 0; t < trials; ++t) {
      const DVcInstance inst = make_d_vc(n, alpha, k, rng);
      const ShardedPartition<Edge> parts = shard_random(inst.edges, k, rng);
      // The machines send s arbitrary (here: random) edges plus nothing
      // fixed; the coordinator 2-approximates the union.
      std::vector<EdgeList> summaries;
      for (std::size_t i = 0; i < k; ++i) {
        summaries.push_back(shard_span(parts, i).sample_edges(budget, rng));
      }
      EdgeList summary_union = EdgeList::union_of(summaries);
      for (const Edge& e : summary_union) {
        if (e == inst.e_star) {
          ++has_e_star;
          break;
        }
      }
      const VertexCover cover = vc_two_approximation(summary_union, rng);
      cover_total += static_cast<double>(cover.size());
      if (cover.covers(inst.edges)) ++feasible;
    }
    // e*'s machine holds ~|E_A|/k + 1 ~ n/(2 alpha) edges; keeping s of them
    // at random retains e* w.p. ~ min(1, 2 s alpha / n).
    const double predicted = std::min(1.0, 2.0 * budget * alpha / n);
    const double p_e_star = static_cast<double>(has_e_star) / trials;
    const double p_feasible = static_cast<double>(feasible) / trials;
    shape_ok &= std::abs(p_e_star - predicted) < 0.3;
    table.add_row({TablePrinter::fmt(std::uint64_t{budget}),
                   TablePrinter::fmt_ratio(frac),
                   TablePrinter::fmt_ratio(p_e_star),
                   TablePrinter::fmt_ratio(p_feasible),
                   TablePrinter::fmt_ratio(predicted),
                   TablePrinter::fmt(cover_total / trials, 0)});
  }
  table.print();
  std::printf(
      "(*) P[cover feasible] is not bounded by P[e* in summary]: the "
      "coordinator's cover can take an endpoint of e* through other summary "
      "edges and so cover e* without receiving it.\n");
  // Verdict: P[e* in summary] tracks min(1, 2 s alpha / n): keeping e* needs
  // budgets of order n/alpha, matching Omega(n/alpha).
  return shape_ok;
}

}  // namespace rcc::bench
