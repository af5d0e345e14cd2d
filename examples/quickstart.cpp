// Quickstart: the 30-second tour of the library.
//
//   1. Build (or load) a graph as an EdgeList.
//   2. Run the simultaneous coreset protocol for maximum matching: the
//      engine randomly partitions the edges over k simulated machines, each
//      machine sends a maximum matching of its piece (Theorem 1), and the
//      coordinator solves the union.
//   3. Do the same for minimum vertex cover with the peeling coreset
//      (Theorem 2).
//
// Run:  ./quickstart --n 100000 --k 32 --seed 7
#include <cstdint>
#include <cstdio>

#include "distributed/protocols.hpp"
#include "graph/generators.hpp"
#include "matching/max_matching.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace rcc;
  Options opts("quickstart: coreset protocols on a random graph");
  opts.flag("n", "50000", "number of vertices, >= 1");
  opts.flag("k", "32", "number of machines, 1 .. 1024");
  opts.flag("avg-degree", "6", "average degree of the random graph");
  opts.flag("seed", "7", "PRNG seed");
  opts.parse(argc, argv);

  const auto n = static_cast<VertexId>(opts.get_int_in("n", 1, kInvalidVertex));
  const auto k =
      static_cast<std::size_t>(opts.get_int_in("k", 1, kMaxMachinesFlag));
  Rng rng(static_cast<std::uint64_t>(opts.get_int_in("seed", 0, INT64_MAX)));

  // 1. A graph. Any EdgeList works: generators, io::read_edge_list, or your
  //    own construction.
  const EdgeList graph = gnp(n, opts.get_double("avg-degree") / n, rng);
  std::printf("graph: n=%u m=%zu\n", n, graph.num_edges());

  // 2. Maximum matching via randomized composable coresets (Theorem 1).
  ThreadPool pool;  // machines run concurrently
  const MatchingProtocolResult mm =
      coreset_matching_protocol(graph, k, /*left_size=*/0, rng, &pool);
  std::printf("matching: %zu edges, %llu words communicated (%.2f MiB), "
              "%.0f ms machine phase\n",
              mm.solution.size(),
              static_cast<unsigned long long>(mm.comm.total_words()),
              mm.comm.total_megabytes(n), mm.timing.summaries_seconds * 1e3);

  // Compare against the centralized optimum (feasible at this scale).
  const std::size_t opt = maximum_matching_size(graph);
  std::printf("centralized optimum: %zu  -> protocol ratio %.3f "
              "(Theorem 1 guarantees <= 9)\n",
              opt, static_cast<double>(opt) / mm.solution.size());

  // 3. Minimum vertex cover via peeling coresets (Theorem 2).
  const VcProtocolResult vc = coreset_vc_protocol(graph, k, rng, &pool);
  std::printf("vertex cover: %zu vertices, feasible=%s, %llu words "
              "communicated\n",
              vc.solution.size(), vc.solution.covers(graph) ? "yes" : "NO",
              static_cast<unsigned long long>(vc.comm.total_words()));
  return 0;
}
