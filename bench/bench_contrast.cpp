// EXP18 (Section 1 framing): problems with *deterministic* composable
// coresets vs the random-partition-only guarantees of matching.
//
// The spanning-forest coreset recovers connectivity EXACTLY under every
// partitioner — random, sorted chunks, by-vertex — while the
// maximal-matching coreset's quality is partition- and adversary-dependent
// (EXP2's hub adversary realizes the Omega(k) gap under random
// partitioning already; adversarial partitioning is what makes matching
// require n^{2-o(1)} summaries per [10]).
#include "bench_common.hpp"
#include "coreset/compose.hpp"
#include "coreset/matching_coresets.hpp"
#include "distributed/protocol_engine.hpp"
#include "evidence/contrast/connectivity_coreset.hpp"
#include "evidence/graph/properties.hpp"
#include "evidence/partition/adversarial.hpp"
#include "graph/generators.hpp"
#include "matching/max_matching.hpp"
#include "partition/partition.hpp"
#include "partition/sharded_partition.hpp"

namespace rcc::bench {

bool run_contrast(const ExperimentSetup& setup) {
  Rng rng(setup.seed);
  const auto n = static_cast<VertexId>(20000 * setup.scale);
  const EdgeList el = gnp(n, 1.6 / n, rng);  // rich component structure
  const std::size_t true_components = connected_components(Graph(el));
  const std::size_t mm = maximum_matching_size(el);
  const std::size_t k = 12;
  std::printf("n=%u m=%zu components=%zu MM=%zu k=%zu\n\n", n, el.num_edges(),
              true_components, mm, k);

  // Every partitioning's pieces as engine views; the storage below outlives
  // them.
  const ShardedPartition<Edge> random_parts = shard_random(el, k, rng);
  const std::vector<EdgeList> sorted_parts = sorted_chunk_partition(el, k);
  const std::vector<EdgeList> vertex_parts = by_vertex_partition(el, k);
  const std::vector<EdgeList> model10_parts =
      random_vertex_partition(el, k, rng);
  struct Partitioner {
    const char* name;
    std::vector<std::span<const Edge>> pieces;
  };
  const Partitioner partitioners[] = {
      {"random (the paper's model)", pieces_of(random_parts)},
      {"sorted chunks (adversarial)", pieces_of(sorted_parts)},
      {"by-vertex (adversarial)", pieces_of(vertex_parts)},
      {"vertex-partition model of [10]", pieces_of(model10_parts)},
  };

  TablePrinter table({"partitioner", "connectivity: components",
                      "exact?", "matching ratio"});
  bool connectivity_always_exact = true;
  const SpanningForestCoreset forest_coreset;
  const MaximumMatchingCoreset matching_coreset;
  for (const Partitioner& p : partitioners) {
    std::vector<EdgeList> forest_summaries, matching_summaries;
    for (std::size_t i = 0; i < k; ++i) {
      PartitionContext ctx{n, k, i, 0};
      const EdgeSpan piece(p.pieces[i].data(), p.pieces[i].size(), n);
      forest_summaries.push_back(forest_coreset.build(piece, ctx, rng));
      matching_summaries.push_back(matching_coreset.build(piece, ctx, rng));
    }
    const std::size_t comp = connected_components(
        Graph(spanning_forest(EdgeList::union_of(forest_summaries))));
    const bool exact = comp == true_components;
    connectivity_always_exact &= exact;
    const Matching composed = compose_matching_coresets(
        matching_summaries, ComposeSolver::kMaximum, 0, rng);
    table.add_row({p.name, TablePrinter::fmt(std::uint64_t{comp}),
                   exact ? "yes" : "NO",
                   TablePrinter::fmt_ratio(static_cast<double>(mm) /
                                           composed.size())});
  }
  table.print();
  std::printf(
      "\n(matching ratios stay small on THIS instance for all partitioners — "
      "the adversarial-partition hardness of [10] needs RS-graph "
      "constructions; the gap the paper proves for random partitioning is "
      "realized by EXP2's hub adversary.)\n");
  // Verdict: spanning-forest coresets are exact under every partitioner — the
  // deterministic composability the intro contrasts matching against.
  return connectivity_always_exact;
}

}  // namespace rcc::bench
