// EXP11 (Appendix A / A1): structural constants of random bipartite graphs
// G(n, n, 1/n): degree-1 left vertices ~ n/e (Prop A.2a), right vertices
// untouched by L\S ~ n/e (Prop A.2b), induced matching >= n/e^3 (Lemma A.3,
// with the exact expectation n/e^2), and the balls-in-bins singleton law
// (Prop A.1).
#include <cmath>

#include "bench_common.hpp"
#include "evidence/graph/properties.hpp"
#include "evidence/util/stats.hpp"
#include "graph/generators.hpp"

namespace rcc::bench {

bool run_induced_matching(const ExperimentSetup& setup) {
  Rng rng(setup.seed);
  const auto n = static_cast<VertexId>(40000 * setup.scale);

  TablePrinter table({"quantity", "measured/n", "predicted/n", "rel-err"});
  bool ok = true;
  auto add = [&](const char* name, double measured, double predicted) {
    const double rel = std::abs(measured - predicted) / predicted;
    ok &= rel < 0.05;
    table.add_row({name, TablePrinter::fmt(measured, 4),
                   TablePrinter::fmt(predicted, 4), TablePrinter::fmt(rel, 4)});
  };

  RunningStat deg1, induced;
  for (int rep = 0; rep < setup.reps; ++rep) {
    const EdgeList el = random_bipartite(n, n, 1.0 / n, rng);
    deg1.add(static_cast<double>(degree_one_count(el, n)) / n);
    induced.add(static_cast<double>(induced_matching(el).num_edges()) / n);
  }
  add("degree-1 left vertices (Prop A.2a)", deg1.mean(), std::exp(-1.0));
  add("induced matching (exact E ~ n/e^2)", induced.mean(), std::exp(-2.0));
  // Lemma A.3's guarantee is one-sided.
  ok &= induced.mean() >= std::exp(-3.0);
  table.add_row({"induced matching >= n/e^3 (Lemma A.3)",
                 TablePrinter::fmt(induced.mean(), 4),
                 TablePrinter::fmt(std::exp(-3.0), 4),
                 induced.mean() >= std::exp(-3.0) ? "holds" : "VIOLATED"});

  // Balls in bins (Prop A.1): N balls, M bins, subset B.
  {
    const std::uint64_t M = n, N = n / 2, B = n / 4;
    RunningStat singles;
    for (int rep = 0; rep < setup.reps; ++rep) {
      std::vector<std::uint32_t> load(M, 0);
      for (std::uint64_t b = 0; b < N; ++b) ++load[rng.next_below(M)];
      std::uint64_t count = 0;
      for (std::uint64_t i = 0; i < B; ++i) count += (load[i] == 1) ? 1 : 0;
      singles.add(static_cast<double>(count) / static_cast<double>(n));
    }
    const double predicted = (static_cast<double>(B) / M) *
                             (static_cast<double>(N) / n) *
                             std::exp(-static_cast<double>(N) / M);
    add("balls-in-bins singletons in B (Prop A.1)", singles.mean(), predicted);
  }
  table.print();
  // Verdict: all Appendix A constants within 5% of prediction.
  return ok;
}

}  // namespace rcc::bench
