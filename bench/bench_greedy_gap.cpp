// EXP2 (Section 1.2 / R1c): an arbitrary (adversarial) maximal-matching
// coreset degrades as Omega(k) on the hub gadget while the maximum-matching
// coreset stays O(1). The table sweeps k and reports both ratios.
#include <vector>

#include "bench_common.hpp"
#include "coreset/compose.hpp"
#include "coreset/matching_coresets.hpp"
#include "evidence/coreset/adversarial.hpp"
#include "graph/generators.hpp"
#include "partition/sharded_partition.hpp"

namespace rcc::bench {

bool run_greedy_gap(const ExperimentSetup& setup) {
  Rng rng(setup.seed);
  const auto pairs = static_cast<VertexId>(8192 * setup.scale);

  TablePrinter table({"k", "hubs", "adversarial-ratio", "random-greedy-ratio",
                      "maximum-ratio", "adversarial/k"});
  bool grows_linearly = true;
  bool maximum_stays_constant = true;
  for (std::size_t k : {4, 8, 16, 32, 64}) {
    const auto hubs = static_cast<VertexId>(2 * pairs / k);
    const HubGadget gadget = hub_gadget(pairs, hubs);
    const auto parts = shard_random(gadget.edges, k, rng);

    auto ratio_with = [&](const MatchingCoreset& coreset) {
      std::vector<EdgeList> summaries;
      for (std::size_t i = 0; i < k; ++i) {
        PartitionContext ctx{gadget.edges.num_vertices(), k, i,
                             gadget.left_size};
        summaries.push_back(coreset.build(shard_span(parts, i), ctx, rng));
      }
      const Matching composed = compose_matching_coresets(
          summaries, ComposeSolver::kMaximum, gadget.left_size, rng);
      return static_cast<double>(pairs) / static_cast<double>(composed.size());
    };

    const HubAdversarialMaximalCoreset bad(gadget);
    // The failure is about the *adversarial freedom* in "arbitrary maximal
    // matching": an oblivious random-order greedy does not realize it.
    const MaximalMatchingCoreset oblivious(GreedyOrder::kRandom);
    const MaximumMatchingCoreset good;
    const double bad_ratio = ratio_with(bad);
    const double oblivious_ratio = ratio_with(oblivious);
    const double good_ratio = ratio_with(good);
    grows_linearly &= bad_ratio >= static_cast<double>(k) / 6.0;
    maximum_stays_constant &= good_ratio <= 2.0;
    table.add_row({TablePrinter::fmt(std::uint64_t{k}),
                   TablePrinter::fmt(std::uint64_t{hubs}),
                   TablePrinter::fmt_ratio(bad_ratio),
                   TablePrinter::fmt_ratio(oblivious_ratio),
                   TablePrinter::fmt_ratio(good_ratio),
                   TablePrinter::fmt_ratio(bad_ratio / k)});
  }
  table.print();
  // Verdict: adversarial ratio grows ~linearly in k (roughly k/2) while the
  // maximum-matching coreset stays near 1 (random-order greedy sits in
  // between: the failure needs the adversary).
  return grows_linearly && maximum_stays_constant;
}

}  // namespace rcc::bench
