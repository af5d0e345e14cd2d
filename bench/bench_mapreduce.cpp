// EXP9 (Section 1.1 / R5): round complexity of MapReduce algorithms at the
// paper's memory regime. The coreset algorithm needs 2 rounds (1 if the
// input is already randomly partitioned); the filtering baseline of
// Lattanzi et al. [46] needs 2 rounds per filter iteration plus a finish —
// the paper quotes ~6 rounds end to end at O~(n sqrt n) memory.
#include <algorithm>
#include <cmath>
#include <cstdint>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "matching/max_matching.hpp"
#include "mpc/coreset_mpc.hpp"
#include "mpc/filtering_mpc.hpp"
#include "mpc/mpc_engine.hpp"

namespace rcc::bench {

bool run_mapreduce(const ExperimentSetup& setup) {
  Rng rng(setup.seed);
  const auto n = static_cast<VertexId>(3000 * setup.scale);
  // Dense graph (p = 0.5): m exceeds one machine's memory so filtering must
  // iterate, and the per-piece degrees 2m/(nk) clear the peeling thresholds
  // n/(4k) so the vertex cover coreset actually compresses (m >= n^2/8 is
  // the regime where both conditions hold at k = sqrt n).
  const EdgeList el = gnp(n, 0.5, rng);
  const std::size_t opt = maximum_matching_size(el);
  MpcConfig cfg;
  // The paper sets k = sqrt(n); the round counts are k-independent, but the
  // peeling coreset needs n/k > 8 log2 n to have any peeling levels, which
  // at k = sqrt(n) requires n beyond bench scale (~2^16). Without levels the
  // VC coordinator would hold all 2m words against the m-word cap, so k is
  // the largest machine count up to 20 that keeps a level: 20 at scale 1,
  // fewer at smaller scales.
  cfg.num_machines = std::clamp<std::size_t>(
      static_cast<std::size_t>(n / (8.0 * std::log2(static_cast<double>(n)))),
      1, 20);
  cfg.memory_words = static_cast<std::uint64_t>(
      static_cast<double>(el.num_edges()));  // < 2m: one machine can't hold G
  std::printf("n=%u m=%zu machines=%zu memory=%llu words MM(G)=%zu\n\n", n,
              el.num_edges(), cfg.num_machines,
              static_cast<unsigned long long>(cfg.memory_words), opt);

  TablePrinter table({"algorithm", "problem", "rounds", "peak-mem(words)",
                      "solution", "ratio"});
  const CoresetMpcMatchingResult cm = coreset_mpc_matching_rounds(
      el, {.mpc = cfg, .max_rounds = 1, .input_already_random = false}, 0,
      rng);
  table.add_row({"coreset (adversarial input)", "matching",
                 TablePrinter::fmt(std::uint64_t{cm.rounds}),
                 TablePrinter::fmt(cm.max_memory_words),
                 TablePrinter::fmt(std::uint64_t{cm.matching.size()}),
                 TablePrinter::fmt_ratio(static_cast<double>(opt) /
                                         cm.matching.size())});
  const CoresetMpcMatchingResult cm1 =
      coreset_mpc_matching_rounds(el, {.mpc = cfg, .max_rounds = 1}, 0, rng);
  table.add_row({"coreset (random input)", "matching",
                 TablePrinter::fmt(std::uint64_t{cm1.rounds}),
                 TablePrinter::fmt(cm1.max_memory_words),
                 TablePrinter::fmt(std::uint64_t{cm1.matching.size()}),
                 TablePrinter::fmt_ratio(static_cast<double>(opt) /
                                         cm1.matching.size())});
  // Iterated coreset rounds on the multi-round executor: every extra round
  // re-partitions the still-open edges, so the matching can only grow.
  const CoresetMpcMatchingResult cm3 =
      coreset_mpc_matching_rounds(el, {.mpc = cfg, .max_rounds = 3}, 0, rng);
  table.add_row({"coreset x3 rounds (random input)", "matching",
                 TablePrinter::fmt(std::uint64_t{cm3.rounds}),
                 TablePrinter::fmt(cm3.max_memory_words),
                 TablePrinter::fmt(std::uint64_t{cm3.matching.size()}),
                 TablePrinter::fmt_ratio(static_cast<double>(opt) /
                                         cm3.matching.size())});
  const CoresetMpcVcResult cv = coreset_mpc_vertex_cover_rounds(
      el, {.mpc = cfg, .max_rounds = 1, .input_already_random = false}, rng);
  table.add_row({"coreset (adversarial input)", "vertex cover",
                 TablePrinter::fmt(std::uint64_t{cv.rounds}),
                 TablePrinter::fmt(cv.max_memory_words),
                 TablePrinter::fmt(std::uint64_t{cv.cover.size()}), "-"});
  const FilteringMpcResult fm =
      filtering_mpc_rounds(el, {.mpc = cfg, .max_rounds = SIZE_MAX}, rng);
  table.add_row(
      {"filtering [46]", "matching + VC",
       TablePrinter::fmt(std::uint64_t{fm.rounds}),
       TablePrinter::fmt(fm.max_memory_words),
       TablePrinter::fmt(std::uint64_t{fm.maximal_matching.size()}),
       TablePrinter::fmt_ratio(static_cast<double>(opt) /
                               fm.maximal_matching.size())});
  table.print();
  std::printf("(filtering ran %zu filter iterations; each costs 2 rounds)\n",
              fm.filter_iterations);
  const bool shape = cm.rounds == 2 && cm1.rounds == 1 && fm.rounds > cm.rounds;
  // Verdict: coreset-MPC: 2 rounds (1 on random input) at a worse-but-O(1)
  // ratio; filtering: more rounds for its 2-approximation — the round-vs-ratio
  // trade of Section 1.1.
  return shape;
}

}  // namespace rcc::bench
