// graph_pack: generate, inspect, and solve .rgp packed graphs (the
// out-of-core ingestion format of src/graph/graph_pack.hpp).
//
//   # generator family -> pack file (--seed picks the draw)
//   ./graph_pack --mode generate --family gnm --n 100000 --m 800000 --out g.rgp
//
//   # out-of-core: stream a random multigraph straight to disk; the edge
//   # set is never materialized, so m is bounded by disk, not RAM
//   ./graph_pack --mode stream --n 1000000 --m 200000000 --out huge.rgp
//
//   # validate + summarize (construction runs the full decode validation;
//   # a malformed pack aborts with a "graph pack:" diagnostic)
//   ./graph_pack --mode inspect --input g.rgp
//
//   # run a coreset protocol straight off the mapping (zero-copy); all
//   # engine streaming/transport flags apply, so --engine-transport socket
//   # (forked workers over loopback) or --engine-transport shm (forked
//   # workers over shared-memory rings) exercises a cross-process machine
//   # phase from a pack end to end
//   ./graph_pack --mode solve --input g.rgp --problem matching --k 8
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "distributed/protocols.hpp"
#include "graph/generators.hpp"
#include "graph/graph_pack.hpp"
#include "matching/weighted.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace rcc {
namespace {

/// --n as a vertex count: it must fit VertexId.
VertexId vertex_count_flag(const Options& opts) {
  return static_cast<VertexId>(opts.get_int_in("n", 0, kInvalidVertex));
}

/// --m as an edge count in [0, max_edges].
std::uint64_t edge_count_flag(const Options& opts, std::int64_t max_edges) {
  return static_cast<std::uint64_t>(opts.get_int_in("m", 0, max_edges));
}

EdgeList generate_family(const Options& opts, Rng& rng) {
  const std::string family = opts.get_string("family");
  const VertexId n = vertex_count_flag(opts);
  // gnm draws m distinct pairs; the other families ignore --m.
  // n(n-1)/2 < 2^63 for every n below 2^32, so the bound fits int64.
  const std::uint64_t m = edge_count_flag(
      opts, family == "gnm"
                ? static_cast<std::int64_t>(static_cast<std::uint64_t>(n) *
                                            (n - 1) / 2)
                : INT64_MAX);
  if (family == "gnp") return gnp(n, opts.get_double("p"), rng);
  if (family == "gnm") return gnm(n, m, rng);
  if (family == "random_bipartite") {
    return random_bipartite(n / 2, n - n / 2, opts.get_double("p"), rng);
  }
  if (family == "crown_forest") return crown_forest(n / 8, 4);
  if (family == "star_forest") return star_forest(n / 8, 7);
  if (family == "path") return path(n);
  if (family == "cycle") return cycle(n);
  if (family == "chung_lu") {
    return chung_lu_power_law(n, 2.5, opts.get_double("avg-deg"), rng);
  }
  flag_fail("", "unknown --family %s", family.c_str());
}

int run_generate(const Options& opts, Rng& rng) {
  const std::string out = opts.get_string("out");
  if (out.empty()) {
    std::fprintf(stderr, "--mode generate requires --out\n");
    return 2;
  }
  WallTimer timer;
  const EdgeList edges = generate_family(opts, rng);
  if (opts.get_bool("weighted")) {
    WeightedEdgeList wedges;
    wedges.num_vertices = edges.num_vertices();
    wedges.edges.reserve(edges.num_edges());
    for (const Edge& e : edges) {
      wedges.add(e.u, e.v, rng.uniform_real(0.5, 8.0));
    }
    GraphPack::write(wedges, out);
  } else {
    GraphPack::write(edges, out);
  }
  std::printf("packed %s: n=%u m=%zu weighted=%d (%.0f ms)\n", out.c_str(),
              edges.num_vertices(), edges.num_edges(),
              opts.get_bool("weighted") ? 1 : 0, timer.millis());
  return 0;
}

int run_stream(const Options& opts, Rng& rng) {
  const std::string out = opts.get_string("out");
  if (out.empty()) {
    std::fprintf(stderr, "--mode stream requires --out\n");
    return 2;
  }
  const VertexId n = vertex_count_flag(opts);
  if (n < 2) flag_fail("n", "%u is below 2 (stream draws non-loop edges)", n);
  const std::uint64_t m = edge_count_flag(opts, INT64_MAX);
  // Uniform random multigraph, one buffered record at a time: RAM usage is
  // the writer's 1 MiB buffer no matter how large m is (parallel edges are
  // legal EdgeList inputs — the Remark 5.8 multigraph semantics).
  WallTimer timer;
  PackWriter writer(out, n, /*weighted=*/false);
  for (std::uint64_t i = 0; i < m; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    auto v = static_cast<VertexId>(rng.next_below(n - 1));
    if (v >= u) ++v;  // uniform over the n-1 non-loop partners
    writer.add(u, v);
  }
  writer.finish();
  std::printf("streamed %s: n=%u m=%" PRIu64 " (%.0f ms)\n", out.c_str(), n, m,
              timer.millis());
  return 0;
}

int run_inspect(const std::string& input) {
  WallTimer timer;
  const MappedGraph graph(input);  // aborts on any malformed field/record
  std::printf(
      "%s: valid .rgp v%u | n=%u m=%zu weighted=%d | %" PRIu64
      " bytes (%zu-byte records) | validated in %.0f ms\n",
      input.c_str(), kPackVersion, graph.num_vertices(), graph.num_edges(),
      graph.weighted() ? 1 : 0, graph.file_bytes(),
      graph.weighted() ? sizeof(WeightedEdge) : sizeof(Edge), timer.millis());
  return 0;
}

int run_solve(const Options& opts, Rng& rng) {
  // Every count is range-checked before the pack is opened or a thread or
  // worker starts; --left-size needs the pack's n.
  const auto k =
      static_cast<std::size_t>(opts.get_int_in("k", 1, kMaxMachinesFlag));
  const auto threads =
      static_cast<std::size_t>(opts.get_int_in("threads", 0, kMaxThreadsFlag));
  const std::string input = opts.get_string("input");
  const MappedGraph graph(input);
  if (graph.weighted()) {
    std::fprintf(stderr, "--mode solve expects an unweighted pack\n");
    return 2;
  }
  const auto left_size = static_cast<VertexId>(
      opts.get_int_in("left-size", 0, graph.num_vertices()));
  ThreadPool pool(threads);
  const StreamingOptions streaming = streaming_options_from_options(opts);
  const std::string problem = opts.get_string("problem");

  if (problem == "matching") {
    const MatchingProtocolResult r =
        coreset_matching_protocol(graph, k, left_size, rng, &pool, streaming);
    std::printf("matching: %zu edges | comm %" PRIu64 " words | wire %" PRIu64
                " bytes in %" PRIu64 " frames\n",
                r.solution.size(), r.comm.total_words(),
                r.transport.wire_bytes, r.transport.frames);
    return 0;
  }
  if (problem == "vc") {
    const VcProtocolResult r =
        coreset_vc_protocol(graph, k, rng, &pool, streaming);
    std::printf("vertex cover: %zu vertices (feasible=%s) | comm %" PRIu64
                " words | wire %" PRIu64 " bytes in %" PRIu64 " frames\n",
                r.solution.size(),
                r.solution.covers(graph.edges()) ? "yes" : "NO",
                r.comm.total_words(), r.transport.wire_bytes,
                r.transport.frames);
    return 0;
  }
  std::fprintf(stderr, "unknown --problem %s\n", problem.c_str());
  return 2;
}

int graph_pack_main(int argc, char** argv) {
  Options opts("graph_pack: generate / inspect / solve .rgp packed graphs");
  opts.flag("mode", "inspect", "generate | stream | inspect | solve");
  opts.flag("out", "", "output pack path (generate/stream)");
  opts.flag("input", "", "input pack path (inspect/solve)");
  opts.flag("family", "gnm",
            "generate: gnp | gnm | random_bipartite | crown_forest | "
            "star_forest | path | cycle | chung_lu");
  opts.flag("n", "1000", "vertex count, 0 .. 2^32-1 (stream: >= 2)");
  opts.flag("m", "4000",
            "edge count >= 0 (gnm: <= n(n-1)/2; stream: multigraph)");
  opts.flag("p", "0.01", "edge probability (gnp/random_bipartite)");
  opts.flag("avg-deg", "8", "average degree (chung_lu)");
  opts.flag("weighted", "false", "generate: attach uniform weights");
  opts.flag("seed", "42", "PRNG seed");
  opts.flag("problem", "matching", "solve: matching | vc");
  opts.flag("k", "8", "solve: number of machines, 1 .. 1024");
  opts.flag("left-size", "0",
            "solve: bipartition boundary, 0 .. n (0 = general)");
  opts.flag("threads", "0", "solve: worker threads, 0 .. 1024 (0 = hardware)");
  add_streaming_flags(opts);
  opts.parse(argc, argv);

  Rng rng(static_cast<std::uint64_t>(opts.get_int_in("seed", 0, INT64_MAX)));
  const std::string mode = opts.get_string("mode");
  if (mode == "generate") return run_generate(opts, rng);
  if (mode == "stream") return run_stream(opts, rng);
  if (mode == "inspect") {
    const std::string input = opts.get_string("input");
    if (input.empty()) {
      std::fprintf(stderr, "--mode inspect requires --input\n");
      return 2;
    }
    return run_inspect(input);
  }
  if (mode == "solve") return run_solve(opts, rng);
  std::fprintf(stderr, "unknown --mode %s\n", mode.c_str());
  return 2;
}

}  // namespace
}  // namespace rcc

int main(int argc, char** argv) { return rcc::graph_pack_main(argc, argv); }
