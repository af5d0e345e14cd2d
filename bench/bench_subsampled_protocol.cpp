// EXP7 (Remark 5.2 / R4a): the subsampled-matching protocol trades
// approximation alpha for communication ~ nk/alpha^2 on D_Matching — tight
// against the Theorem 5 lower bound.
//
// Table: alpha sweep -> measured ratio (~alpha) and total communication
// (words), with the nk/alpha^2 prediction alongside.
#include "bench_common.hpp"
#include "distributed/protocols.hpp"
#include "lower_bounds/hard_instances.hpp"
#include "matching/max_matching.hpp"

namespace rcc::bench {

bool run_subsampled_protocol(const ExperimentSetup& setup) {
  Rng rng(setup.seed);
  const auto n = static_cast<VertexId>(40000 * setup.scale);
  const std::size_t k = 50;
  const double inst_alpha = 10.0;
  const DMatchingInstance inst = make_d_matching(n, inst_alpha, k, rng);
  const std::size_t opt = maximum_matching_size(inst.edges, inst.left_size());
  std::printf("D_Matching: n=%u k=%zu MM(G)=%zu\n\n", n, k, opt);

  TablePrinter table({"alpha", "ratio", "comm(words)", "comm*alpha^2/(n*k)",
                      "ratio/alpha"});
  bool comm_shape = true;
  for (double alpha : {1.0, 2.0, 4.0, 8.0}) {
    const MatchingProtocolResult r = subsampled_matching_protocol(
        inst.edges, k, alpha, inst.left_size(), rng, nullptr);
    const double ratio = static_cast<double>(opt) /
                         static_cast<double>(std::max<std::size_t>(
                             r.solution.size(), 1));
    const double comm = static_cast<double>(r.comm.total_words());
    const double normalized = comm * alpha * alpha /
                              (static_cast<double>(n) * static_cast<double>(k));
    // Normalized communication should be ~constant across alpha (the
    // nk/alpha^2 law). Per-piece MM ~ n/alpha_inst + n/k edges.
    table.add_row({TablePrinter::fmt_ratio(alpha), TablePrinter::fmt_ratio(ratio),
                   TablePrinter::fmt(std::uint64_t{r.comm.total_words()}),
                   TablePrinter::fmt_ratio(normalized),
                   TablePrinter::fmt_ratio(ratio / alpha)});
    comm_shape &= ratio <= 9.0 * alpha;  // alpha times the Theorem 1 constant
  }
  table.print();
  // Verdict: ratio grows ~linearly with alpha while communication falls
  // ~quadratically: the nk/alpha^2 frontier of Theorem 5.
  return comm_shape;
}

}  // namespace rcc::bench
