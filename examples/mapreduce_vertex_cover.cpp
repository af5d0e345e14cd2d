// MapReduce vertex cover for record deduplication.
//
// Scenario from the paper's Section 1.1: a dense pairwise-similarity graph
// over n records (dedup candidates) does not fit on one machine. A vertex
// cover is the smallest set of records whose manual review touches every
// duplicate link. The 2-round coreset algorithm is compared against the
// multi-round filtering baseline of Lattanzi et al. [46] — fewer rounds is
// the paper's headline, since round transitions dominate MapReduce cost.
//
// The instance is dense (m ~ n^2/4) on purpose: that is the regime where
// the graph exceeds one machine's memory (so filtering must iterate) and
// where the peeling coreset compresses (piece degrees clear the
// n/(4k) thresholds).
//
// The first row is the paper's 2-round algorithm on adversarially placed
// records (they arrive wherever they were crawled), so it pays the shuffle
// round. --mpc-rounds > 1 adds a multi-round row, whose placement follows
// --mpc-random-input.
//
// Run:  ./mapreduce_vertex_cover --n 3000 --mpc-rounds 2 --mpc-random-input false
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "distributed/message.hpp"
#include "graph/generators.hpp"
#include "mpc/coreset_mpc.hpp"
#include "mpc/filtering_mpc.hpp"
#include "mpc/mpc_engine.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rcc;
  Options opts("mapreduce_vertex_cover: 2-round coreset MPC vs filtering");
  opts.flag("n", "3000", "number of records");
  opts.flag("p", "0.5", "pairwise similarity probability");
  opts.flag("seed", "33", "PRNG seed");
  add_mpc_engine_flags(opts);  // --mpc-machines / -memory-budget / -rounds ...
  opts.parse(argc, argv);

  const auto n = static_cast<VertexId>(opts.get_int("n"));
  Rng rng(static_cast<std::uint64_t>(opts.get_int("seed")));
  const EdgeList similarity = gnp(n, opts.get_double("p"), rng);

  MpcEngineConfig engine_cfg = mpc_engine_config_from_options(opts, n);
  if (opts.get_int("mpc-machines") == 0) engine_cfg.mpc.num_machines = 20;
  if (opts.get_int("mpc-memory-budget") == 0) {
    // One machine's memory is below the graph size: the whole point of MPC.
    engine_cfg.mpc.memory_words = similarity.num_edges();
  }
  const MpcConfig cfg = engine_cfg.mpc;
  std::printf(
      "dedup graph: n=%u m=%zu (%.1f MiB) | cluster: %zu machines x %llu "
      "words (each < the graph)\n\n",
      n, similarity.num_edges(),
      static_cast<double>(similarity.num_edges()) * 2 * word_bits(n) / 8.0 /
          1024.0 / 1024.0,
      cfg.num_machines, static_cast<unsigned long long>(cfg.memory_words));

  const CoresetMpcVcResult coreset = coreset_mpc_vertex_cover_rounds(
      similarity,
      {.mpc = cfg, .max_rounds = 1, .input_already_random = false}, rng);
  const FilteringMpcResult filtering = filtering_mpc_rounds(
      similarity, {.mpc = cfg, .max_rounds = SIZE_MAX}, rng);

  TablePrinter table({"algorithm", "rounds", "peak memory (words)",
                      "cover size", "feasible"});
  table.add_row({"coreset MPC (this paper)",
                 TablePrinter::fmt(std::uint64_t{coreset.rounds}),
                 TablePrinter::fmt(coreset.max_memory_words),
                 TablePrinter::fmt(std::uint64_t{coreset.cover.size()}),
                 coreset.cover.covers(similarity) ? "yes" : "NO"});
  if (engine_cfg.max_rounds > 1) {
    // The multi-round executor: intermediate rounds commit only the peeled
    // vertices, the final round closes the cover (mpc/mpc_engine.hpp).
    const CoresetMpcVcResult iterated =
        coreset_mpc_vertex_cover_rounds(similarity, engine_cfg, rng);
    table.add_row({"coreset MPC (multi-round)",
                   TablePrinter::fmt(std::uint64_t{iterated.rounds}),
                   TablePrinter::fmt(iterated.max_memory_words),
                   TablePrinter::fmt(std::uint64_t{iterated.cover.size()}),
                   iterated.cover.covers(similarity) ? "yes" : "NO"});
  }
  table.add_row({"filtering [LMSV'11]",
                 TablePrinter::fmt(std::uint64_t{filtering.rounds}),
                 TablePrinter::fmt(filtering.max_memory_words),
                 TablePrinter::fmt(std::uint64_t{filtering.cover.size()}),
                 filtering.cover.covers(similarity) ? "yes" : "NO"});
  table.print();

  std::printf(
      "\ncoreset MPC: O(log n)-approx in %zu rounds (1 round if the shards "
      "were already random).\nfiltering: 2-approx but %zu rounds (%zu filter "
      "iterations x 2 + finish) — the trade the paper's Section 1.1 "
      "describes.\n",
      coreset.rounds, filtering.rounds, filtering.filter_iterations);
  return 0;
}
