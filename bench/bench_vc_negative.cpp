// EXP4 (Section 1.2 / R1d): sending a minimum vertex cover of each piece is
// an Omega(k)-approximate "coreset" on star instances — a one-edge piece
// cannot tell the star's center from its leaf — while the peeling coreset
// stays constant-factor.
#include "bench_common.hpp"
#include "coreset/vc_coreset.hpp"
#include "coreset/compose.hpp"
#include "graph/generators.hpp"
#include "partition/sharded_partition.hpp"

int main(int argc, char** argv) {
  using namespace rcc;
  auto setup = bench::standard_setup(
      argc, argv, "EXP4/bench_vc_negative",
      "R1d: min-VC-of-piece union is Omega(k)-approximate on star forests "
      "(expected ~k/e); the peeling coreset stays ~2");
  Rng rng(setup.seed);
  const auto stars = static_cast<VertexId>(600 * setup.scale);

  TablePrinter table({"k", "OPT", "min-vc-union", "min-vc-ratio",
                      "peeling-ratio", "min-vc-ratio/k"});
  bool min_vc_fails = true;
  bool peeling_fine = true;
  for (std::size_t k : {8, 16, 32, 64}) {
    const EdgeList el = star_forest(stars, static_cast<VertexId>(k));
    const VertexId n = el.num_vertices();
    const std::size_t opt = stars;
    const auto parts = shard_random(el, k, rng);

    auto cover_with = [&](const VertexCoverCoreset& coreset) {
      std::vector<VcCoresetOutput> summaries;
      for (std::size_t i = 0; i < k; ++i) {
        PartitionContext ctx{n, k, i, 0};
        summaries.push_back(coreset.build(shard_span(parts, i), ctx, rng));
      }
      return compose_vc_coresets(summaries, n, rng);
    };

    const MinVcOfPieceCoreset bad(ForestTieBreak::kHighId);
    const PeelingVcCoreset good;
    const VertexCover bad_cover = cover_with(bad);
    const VertexCover good_cover = cover_with(good);
    const double bad_ratio = static_cast<double>(bad_cover.size()) / opt;
    const double good_ratio = static_cast<double>(good_cover.size()) / opt;
    min_vc_fails &= bad_ratio >= static_cast<double>(k) / 8.0;
    peeling_fine &= good_ratio <= 3.0;
    table.add_row({TablePrinter::fmt(std::uint64_t{k}),
                   TablePrinter::fmt(std::uint64_t{opt}),
                   TablePrinter::fmt(std::uint64_t{bad_cover.size()}),
                   TablePrinter::fmt_ratio(bad_ratio),
                   TablePrinter::fmt_ratio(good_ratio),
                   TablePrinter::fmt_ratio(bad_ratio / k)});
  }
  table.print();
  bench::verdict(min_vc_fails && peeling_fine,
                 "min-vc-of-piece ratio grows ~k/e with k; peeling coreset "
                 "stays ~2 (the 2-approx of the residual union)");
  return (min_vc_fails && peeling_fine) ? 0 : 1;
}
