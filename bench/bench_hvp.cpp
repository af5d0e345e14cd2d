// EXP17 (Lemma 5.7 / Theorem 6 gadget): the Hidden Vertex Problem game.
// Success at sublinear output size requires a message of Omega(m) elements:
// the budget-b protocol succeeds w.p. ~ b/m + fallback/(|U| - m), so the
// curve crosses 2/3 only when b ~ 2m/3 (for small fallback).
#include "bench_common.hpp"
#include "lower_bounds/hvp.hpp"

namespace rcc::bench {

bool run_hvp(const ExperimentSetup& setup) {
  Rng rng(setup.seed);
  const std::uint64_t universe = static_cast<std::uint64_t>(40000 * setup.scale);
  const std::size_t m = static_cast<std::size_t>(universe / 10);  // n/alpha
  const int trials = 120 * setup.reps;

  TablePrinter table({"budget/m", "fallback/|U\\T|", "P[success]", "predicted",
                      "avg output size"});
  bool shape = true;
  for (double bfrac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    for (double ffrac : {0.0, 0.25}) {
      const auto budget = static_cast<std::size_t>(bfrac * m);
      const auto fallback =
          static_cast<std::size_t>(ffrac * (universe - m));
      int successes = 0;
      double output = 0.0;
      for (int t = 0; t < trials; ++t) {
        const HvpInstance inst = make_hvp(universe, m, rng);
        const HvpOutcome out = run_budgeted_hvp(inst, budget, fallback, rng);
        successes += out.success ? 1 : 0;
        output += static_cast<double>(out.output_size);
      }
      const double p = static_cast<double>(successes) / trials;
      const double predicted = bfrac + (1.0 - bfrac) * ffrac;
      shape &= std::abs(p - predicted) < 0.1;
      table.add_row({TablePrinter::fmt_ratio(bfrac), TablePrinter::fmt_ratio(ffrac),
                     TablePrinter::fmt_ratio(p), TablePrinter::fmt_ratio(predicted),
                     TablePrinter::fmt(output / trials, 1)});
    }
  }
  table.print();
  // Verdict: success tracks budget/m + (1-budget/m)*fallback-fraction:
  // constant success needs either Omega(m) message words or Omega(|U|) output
  // — Lemma 5.7's frontier.
  return shape;
}

}  // namespace rcc::bench
