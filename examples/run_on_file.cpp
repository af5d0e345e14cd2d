// Run the coreset protocols on a graph loaded from disk.
//
// The edge-list format is documented in src/graph/io.hpp ("n m" header
// followed by "u v" lines; '#' comments). This is the adoption path for
// users with their own graphs:
//
//   ./run_on_file --graph my_graph.txt --problem matching --k 32
//   ./run_on_file --graph my_graph.txt --problem vc --k 16 --seed 7
//
// With --graph "" (default) a demo graph is generated, written to a temp
// file, and loaded back — exercising the full I/O path.
#include <cstdint>
#include <cstdio>
#include <string>

#include "distributed/protocols.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace rcc;
  Options opts("run_on_file: coreset protocols over an edge-list file");
  opts.flag("graph", "", "path to an edge-list file (empty = demo graph)");
  opts.flag("problem", "matching", "matching | vc | both");
  opts.flag("k", "16", "number of machines, 1 .. 1024");
  opts.flag("left-size", "0",
            "bipartition boundary, 0 .. n (0 = general graph)");
  opts.flag("seed", "42", "PRNG seed");
  opts.flag("threads", "0", "worker threads, 0 .. 1024 (0 = hardware)");
  opts.parse(argc, argv);

  Rng rng(static_cast<std::uint64_t>(opts.get_int_in("seed", 0, INT64_MAX)));
  std::string path = opts.get_string("graph");
  if (path.empty()) {
    path = "/tmp/rcc_demo_graph.txt";
    const EdgeList demo = gnp(20000, 6.0 / 20000, rng);
    write_edge_list(demo, path);
    std::printf("(no --graph given: wrote a demo graph to %s)\n", path.c_str());
  }

  WallTimer load_timer;
  const EdgeList graph = read_edge_list(path);
  std::printf("loaded %s: n=%u m=%zu (%.0f ms)\n", path.c_str(),
              graph.num_vertices(), graph.num_edges(), load_timer.millis());

  const auto k =
      static_cast<std::size_t>(opts.get_int_in("k", 1, kMaxMachinesFlag));
  const auto left_size = static_cast<VertexId>(
      opts.get_int_in("left-size", 0, graph.num_vertices()));
  ThreadPool pool(
      static_cast<std::size_t>(opts.get_int_in("threads", 0, kMaxThreadsFlag)));
  const std::string problem = opts.get_string("problem");

  if (problem == "matching" || problem == "both") {
    const MatchingProtocolResult r =
        coreset_matching_protocol(graph, k, left_size, rng, &pool);
    std::printf(
        "matching: %zu edges | comm %llu words (%.2f MiB) | machines %.0f ms, "
        "coordinator %.0f ms\n",
        r.solution.size(),
        static_cast<unsigned long long>(r.comm.total_words()),
        r.comm.total_megabytes(graph.num_vertices()),
        r.timing.summaries_seconds * 1e3, r.timing.combine_seconds * 1e3);
  }
  if (problem == "vc" || problem == "both") {
    const VcProtocolResult r = coreset_vc_protocol(graph, k, rng, &pool);
    std::printf(
        "vertex cover: %zu vertices (feasible=%s) | comm %llu words | "
        "machines %.0f ms, coordinator %.0f ms\n",
        r.solution.size(), r.solution.covers(graph) ? "yes" : "NO",
        static_cast<unsigned long long>(r.comm.total_words()),
        r.timing.summaries_seconds * 1e3, r.timing.combine_seconds * 1e3);
  }
  if (problem != "matching" && problem != "vc" && problem != "both") {
    std::fprintf(stderr, "unknown --problem %s\n", problem.c_str());
    return 2;
  }
  return 0;
}
