// EXP10 (Results 1 & 3 / R3): total communication of the coreset protocols
// scales as O~(n k): linear in k at fixed n and linear in n at fixed k, with
// every machine sending O~(n) words. (The matching lower bounds say no
// simultaneous protocol does better by more than polylog factors at O(1)
// approximation.)
#include "bench_common.hpp"
#include "distributed/protocols.hpp"
#include "graph/generators.hpp"

namespace rcc::bench {

bool run_communication(const ExperimentSetup& setup) {
  Rng rng(setup.seed);

  TablePrinter table({"problem", "n", "k", "total(words)", "words/(n*k)",
                      "max-machine(words)", "max/n"});
  bool nk_shape = true;
  for (const std::size_t k : {8, 16, 32, 64}) {
    const auto n = static_cast<VertexId>(20000 * setup.scale);
    const EdgeList el = gnp(n, 6.0 / n, rng);
    const MatchingProtocolResult m =
        coreset_matching_protocol(el, k, 0, rng, nullptr);
    const double per_nk = static_cast<double>(m.comm.total_words()) /
                          (static_cast<double>(n) * k);
    nk_shape &= per_nk < 2.0;  // <= 2 words/edge * (n/2 edges)/n = 1
    table.add_row({"matching", TablePrinter::fmt(std::uint64_t{n}),
                   TablePrinter::fmt(std::uint64_t{k}),
                   TablePrinter::fmt(m.comm.total_words()),
                   TablePrinter::fmt_ratio(per_nk),
                   TablePrinter::fmt(m.comm.max_machine_words()),
                   TablePrinter::fmt_ratio(
                       static_cast<double>(m.comm.max_machine_words()) / n)});
  }
  for (const VertexId n_base : {5000, 10000, 20000, 40000}) {
    const auto n = static_cast<VertexId>(n_base * setup.scale);
    const std::size_t k = 16;
    const EdgeList el = gnp(n, 6.0 / n, rng);
    const VcProtocolResult v = coreset_vc_protocol(el, k, rng, nullptr);
    const double per_nk = static_cast<double>(v.comm.total_words()) /
                          (static_cast<double>(n) * k);
    table.add_row({"vertex cover", TablePrinter::fmt(std::uint64_t{n}),
                   TablePrinter::fmt(std::uint64_t{k}),
                   TablePrinter::fmt(v.comm.total_words()),
                   TablePrinter::fmt_ratio(per_nk),
                   TablePrinter::fmt(v.comm.max_machine_words()),
                   TablePrinter::fmt_ratio(
                       static_cast<double>(v.comm.max_machine_words()) / n)});
  }
  table.print();
  // Verdict: words/(n*k) stays O(1)-ish across the k sweep and the n sweep:
  // the O~(nk) law (per-machine O~(n)).
  return nk_shape;
}

}  // namespace rcc::bench
