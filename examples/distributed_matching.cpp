// Simulated cluster for distributed maximum matching.
//
// Scenario: a 16-machine cluster holds a randomly partitioned edge stream of
// a large user-resource graph (think: a day's worth of interaction edges
// sharded by a load balancer — which is exactly the random-partition model).
// Each machine ships only a maximum matching of its shard to the
// coordinator. The ledger shows the headline of the paper: O~(n) words per
// machine instead of shipping all m = 80n/2 edges, at an O(1) loss in
// matching size.
//
// Run:  ./distributed_matching --n 100000 --machines 16
#include <cstdint>
#include <cstdio>

#include "distributed/protocols.hpp"
#include "graph/generators.hpp"
#include "matching/max_matching.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace rcc;
  Options opts("distributed_matching: a 16-machine matching cluster in vitro");
  opts.flag("n", "100000", "vertices, >= 2");
  opts.flag("avg-degree", "80", "average degree (dense: coresets compress)");
  opts.flag("machines", "16", "cluster size k, 1 .. 1024");
  opts.flag("seed", "21", "PRNG seed");
  opts.parse(argc, argv);

  const auto n = static_cast<VertexId>(opts.get_int_in("n", 2, kInvalidVertex));
  const VertexId side = n / 2;  // users x resources: bipartite
  const auto k = static_cast<std::size_t>(
      opts.get_int_in("machines", 1, kMaxMachinesFlag));
  Rng rng(static_cast<std::uint64_t>(opts.get_int_in("seed", 0, INT64_MAX)));
  const EdgeList graph =
      random_bipartite(side, side, opts.get_double("avg-degree") / side, rng);

  std::printf("cluster: %zu machines; graph: n=%u, m=%zu (%.1f MiB raw)\n\n",
              k, n, graph.num_edges(),
              static_cast<double>(graph.num_edges()) * 2 *
                  word_bits(n) / 8.0 / 1024.0 / 1024.0);

  ThreadPool pool;
  const MatchingProtocolResult r =
      coreset_matching_protocol(graph, k, side, rng, &pool);

  // Per-machine ledger (first few machines).
  TablePrinter ledger({"machine", "summary edges", "message (words)"});
  for (std::size_t i = 0; i < std::min<std::size_t>(k, 8); ++i) {
    ledger.add_row({TablePrinter::fmt(std::uint64_t{i}),
                    TablePrinter::fmt(r.comm.per_machine[i].edges),
                    TablePrinter::fmt(r.comm.per_machine[i].words())});
  }
  ledger.add_row({"...", "...", "..."});
  ledger.print();

  const std::size_t opt = maximum_matching_size(graph, side);
  const double naive_words = static_cast<double>(graph.num_edges()) * 2;
  std::printf(
      "\ncoordinator matched %zu pairs (centralized optimum %zu, ratio "
      "%.3f)\n"
      "total communication: %llu words = %.2f MiB (naive ship-everything: "
      "%.2f MiB, %.1fx more)\n"
      "wall time: partition %.0f ms | machines (parallel) %.0f ms | "
      "coordinator %.0f ms\n",
      r.solution.size(), opt, static_cast<double>(opt) / r.solution.size(),
      static_cast<unsigned long long>(r.comm.total_words()),
      r.comm.total_megabytes(n),
      naive_words * word_bits(n) / 8.0 / 1024.0 / 1024.0,
      naive_words / static_cast<double>(r.comm.total_words()),
      r.timing.partition_seconds * 1e3, r.timing.summaries_seconds * 1e3,
      r.timing.combine_seconds * 1e3);
  return 0;
}
