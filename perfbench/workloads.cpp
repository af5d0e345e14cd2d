#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench.hpp"
#include "distributed/protocols.hpp"
#include "graph/generators.hpp"
#include "mpc/coreset_mpc.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

VertexId scaled(double base, double scale) {
  return static_cast<VertexId>(std::max(64.0, base * scale));
}

}  // namespace

bool workload_spec(const std::string& name, double scale, WorkloadSpec& out) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "simul_inproc") {
    // Sparse G(n, m), average degree 16: per-piece builds and the serial
    // compose carry the solve; nothing crosses a process.
    spec.kind = Kind::kSimulInproc;
    spec.n = scaled(80000, scale);
    spec.m = 8ull * spec.n;
    spec.k = 8;
    spec.threads = 4;
  } else if (name == "rounds_shm") {
    // Dense G(n, m), average degree 110: at k = 4 the machines' degrees sit
    // just under the last peeling threshold, so the VC driver peels a few
    // vertices per round and uses all 5 rounds.
    spec.kind = Kind::kRoundsShm;
    spec.n = scaled(10000, scale);
    spec.m = 55ull * spec.n;
    spec.k = 4;
    spec.max_rounds = 5;
    spec.transport = rcc::EngineTransport::kShm;
  } else if (name == "packed_ooc") {
    // Bipartite pack, average degree 8: Hopcroft-Karp keeps the exact
    // reference cheap; each solve maps the file and forks per call.
    spec.kind = Kind::kPackedOoc;
    spec.n = 2 * scaled(75000, scale);
    spec.left_size = spec.n / 2;
    spec.m = 4ull * spec.n;
    spec.k = 4;
    spec.transport = rcc::EngineTransport::kSocket;
  } else {
    return false;
  }
  out = spec;
  return true;
}

Instance setup_instance(const WorkloadSpec& spec, std::uint64_t seed,
                        const std::string& pack_prefix) {
  Instance instance;
  rcc::Rng rng(seed);
  for (std::size_t g = 0; g < kGraphs; ++g) {
    if (spec.kind != Kind::kPackedOoc) {
      instance.graphs.push_back(rcc::gnm(spec.n, spec.m, rng));
      continue;
    }
    // Uniform bipartite multigraph records, streamed batch by batch.
    const std::string path = pack_prefix + "-" + std::to_string(g) + ".rgp";
    rcc::PackWriter writer(path, spec.n, /*weighted=*/false);
    const VertexId left = spec.left_size;
    const VertexId right = spec.n - left;
    for (std::uint64_t i = 0; i < spec.m; ++i) {
      const auto u = static_cast<VertexId>(rng.next_below(left));
      const auto v = static_cast<VertexId>(left + rng.next_below(right));
      writer.add(u, v);
    }
    writer.finish();
    instance.pack_paths.push_back(path);
  }
  if (spec.kind == Kind::kPackedOoc) {
    instance.pack_bytes = rcc::kPackHeaderBytes + sizeof(rcc::Edge) * spec.m;
  }
  return instance;
}

Request request_of(std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t r = index % kRequests;
  // SplitMix-style mixing keeps the solve seeds of nearby --seed values
  // unrelated.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + (r + 1) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 31)) * 0x94D049BB133111EBull;
  return Request{static_cast<std::size_t>(r % kGraphs), z ^ (z >> 29)};
}

SolveInput::SolveInput(const WorkloadSpec& spec, const Instance& instance,
                       std::size_t graph) {
  if (spec.kind == Kind::kPackedOoc) {
    rcc::WallTimer timer;
    mapped_ = std::make_unique<rcc::MappedGraph>(instance.pack_paths.at(graph));
    ingest_s_ = timer.seconds();
  } else {
    list_ = &instance.graphs.at(graph);
  }
}

rcc::EdgeSource SolveInput::source() const {
  if (mapped_ != nullptr) return rcc::EdgeSource(*mapped_);
  return rcc::EdgeSource(*list_);
}

SolveOutcome engine_solve_mpc(const WorkloadSpec& spec, rcc::EdgeSource graph,
                              std::uint64_t solve_seed, rcc::ThreadPool* pool,
                              std::size_t max_rounds) {
  rcc::MpcEngineConfig config;
  config.mpc.num_machines = spec.k;
  config.mpc.memory_words = std::uint64_t{1} << 60;  // never the constraint
  config.max_rounds = max_rounds;
  config.streaming.transport = spec.transport;

  rcc::Rng rng(solve_seed);
  auto matching = rcc::coreset_mpc_matching_rounds(graph, config,
                                                   spec.left_size, rng, pool);
  auto vc = rcc::coreset_mpc_vertex_cover_rounds(graph, config, rng, pool);

  SolveOutcome out;
  out.matching = std::move(matching.matching);
  out.cover = std::move(vc.cover);
  for (const rcc::MpcExecutionStats* s : {&matching.stats, &vc.stats}) {
    out.comm_words += s->total_comm_words;
    out.wire_bytes += s->transport_wire_bytes;
    out.piece_bytes += s->transport_piece_bytes;
    out.forks += s->worker_forks;
    out.engine_rounds += s->engine_rounds;
    out.timing.partition_seconds += s->total_timing.partition_seconds;
    out.timing.summaries_seconds += s->total_timing.summaries_seconds;
    out.timing.combine_seconds += s->total_timing.combine_seconds;
    out.rounds.insert(out.rounds.end(), s->per_round.begin(),
                      s->per_round.end());
  }
  return out;
}

namespace {

template <typename Result>
void add_protocol_run(SolveOutcome& out, const Result& r) {
  out.comm_words += r.comm.total_words();
  out.wire_bytes += r.transport.wire_bytes;
  out.piece_bytes += r.transport.piece_bytes;
  out.forks += r.transport.forks;
  out.engine_rounds += 1;
  out.timing.partition_seconds += r.timing.partition_seconds;
  out.timing.summaries_seconds += r.timing.summaries_seconds;
  out.timing.combine_seconds += r.timing.combine_seconds;
}

}  // namespace

SolveOutcome engine_solve(const WorkloadSpec& spec, rcc::EdgeSource graph,
                          std::uint64_t solve_seed, rcc::ThreadPool* pool,
                          std::size_t max_rounds) {
  if (spec.kind == Kind::kRoundsShm) {
    return engine_solve_mpc(spec, graph, solve_seed, pool, max_rounds);
  }
  rcc::Rng rng(solve_seed);
  SolveOutcome out;
  if (spec.kind == Kind::kSimulInproc) {
    auto m = rcc::coreset_matching_protocol(graph, spec.k, spec.left_size, rng,
                                            pool);
    auto c = rcc::coreset_vc_protocol(graph, spec.k, rng, pool);
    add_protocol_run(out, m);
    add_protocol_run(out, c);
    out.matching = std::move(m.solution);
    out.cover = std::move(c.solution);
  } else {
    rcc::StreamingOptions streaming;
    streaming.transport = spec.transport;
    auto m = rcc::coreset_matching_protocol_streaming(
        graph, spec.k, spec.left_size, rng, pool, streaming);
    auto c = rcc::coreset_vc_protocol_streaming(graph, spec.k, rng, pool,
                                                streaming);
    add_protocol_run(out, m);
    add_protocol_run(out, c);
    out.matching = std::move(m.solution);
    out.cover = std::move(c.solution);
  }
  return out;
}

std::string check_outcome(const SolveOutcome& outcome, rcc::EdgeSource graph) {
  const VertexId n = graph.num_vertices();
  const rcc::Matching& matching = outcome.matching;
  if (matching.num_vertices() != n || !matching.valid()) {
    return "matching is not a consistent matching on the input's vertices";
  }
  // Every matched pair must be an input edge: mark both endpoints of each
  // input edge that realizes a matched pair, then every matched vertex must
  // be marked.
  std::vector<std::uint8_t> realized(n, 0);
  for (const rcc::Edge& e : graph.edges()) {
    if (matching.mate(e.u) == e.v) realized[e.u] = realized[e.v] = 1;
  }
  for (VertexId v = 0; v < n; ++v) {
    if (matching.is_matched(v) && realized[v] == 0) {
      return "matching holds a pair that is not an input edge";
    }
  }
  if (outcome.cover.num_vertices() != n ||
      !outcome.cover.covers(graph.edges())) {
    return "cover misses an input edge";
  }
  return {};
}

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double self_peak_rss_mb() {
  double kib = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) {
        kib = std::strtod(line + 6, nullptr);
        break;
      }
    }
    std::fclose(f);
  }
  return kib / 1024.0;
}

double children_peak_rss_mb() {
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(children.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
