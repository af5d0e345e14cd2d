// EXP8 (Remark 5.8 / R4b): grouping vertices into blocks of
// Theta(alpha/log n) before running the Theorem 2 coreset trades an alpha
// approximation factor for ~nk/alpha words of communication — tight against
// the Theorem 6 lower bound.
#include <cmath>

#include "bench_common.hpp"
#include "distributed/protocols.hpp"
#include "graph/generators.hpp"
#include "vertex_cover/konig.hpp"

namespace rcc::bench {

bool run_grouping_protocol(const ExperimentSetup& setup) {
  Rng rng(setup.seed);
  const auto side = static_cast<VertexId>(8000 * setup.scale);
  const VertexId n = 2 * side;
  const std::size_t k = 8;
  // Dense instance: average degree ~128 so the contracted multigraph still
  // exercises the peeling thresholds at every alpha in the sweep.
  const EdgeList el = random_bipartite(side, side, 128.0 / side, rng);
  const std::size_t opt = konig_vc_size(bipartite_graph(el, side));
  std::printf("n=%u m=%zu k=%zu VC(G)=%zu log2(n)=%.1f\n\n", n,
              el.num_edges(), k, opt, std::log2(static_cast<double>(n)));

  TablePrinter table({"alpha", "group size", "ratio", "ratio/alpha",
                      "comm(words)", "comm*alpha/(n*k*log n)"});
  bool monotone_comm = true;
  std::uint64_t prev_comm = ~std::uint64_t{0};
  const double log_n = std::log2(static_cast<double>(n));
  for (double alpha : {14.0, 28.0, 56.0, 112.0}) {
    const GroupedVcProtocolResult r = grouped_vc_protocol(el, k, alpha, rng, nullptr);
    if (!r.solution.covers(el)) {
      std::printf("grouped cover infeasible\n");
      return false;
    }
    const double ratio =
        static_cast<double>(r.solution.size()) / static_cast<double>(opt);
    const auto g = static_cast<VertexId>(std::max(1.0, std::floor(alpha / log_n)));
    const double normalized =
        static_cast<double>(r.comm.total_words()) * alpha /
        (static_cast<double>(n) * k * log_n);
    monotone_comm &= r.comm.total_words() <= prev_comm;
    prev_comm = r.comm.total_words();
    table.add_row({TablePrinter::fmt_ratio(alpha),
                   TablePrinter::fmt(std::uint64_t{g}),
                   TablePrinter::fmt_ratio(ratio),
                   TablePrinter::fmt_ratio(ratio / alpha),
                   TablePrinter::fmt(std::uint64_t{r.comm.total_words()}),
                   TablePrinter::fmt_ratio(normalized)});
  }
  table.print();
  // Verdict: communication decreases as alpha grows (the ~nk/alpha frontier of
  // Theorem 6) while the ratio stays <= alpha.
  return monotone_comm;
}

}  // namespace rcc::bench
