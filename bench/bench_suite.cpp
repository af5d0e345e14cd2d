// Unified benchmark suite: one binary, one pinned scenario grid, one JSON
// schema — the perf trajectory every optimization PR diffs against.
//
// The grid is instance family (sparse / dense / bipartite / crown-forest)
// x protocol scenario (partition, single- and multi-round matching, VC,
// transports, filtering) x cluster shape (k machines, round budget).
// Rows are pinned: adding a scenario appends a row; changing an existing
// row's parameters, or any row's exact columns, is a baseline reset and
// must re-cut BENCH_scale025.json (see README "Performance playbook").
//
// Output: a table on stdout, and with --json a machine-readable file that
// tools/compare_bench.py diffs against the checked-in baseline. CI gates on
// it: the exact columns must not change, and timing holds a ±25% band
// ("Bench grid vs checked-in baseline"); ±10% is the quiet-machine band.
#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "suite_row.hpp"
#include "graph/generators.hpp"
#include "graph/graph_pack.hpp"
#include "mpc/coreset_mpc.hpp"
#include "mpc/filtering_mpc.hpp"
#include "mpc/mpc_engine.hpp"
#include "partition/sharded_partition.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace rcc::bench {
namespace {

struct Family {
  std::string name;
  VertexId left_size = 0;  // 0 = not bipartite
  EdgeList edges;
};

/// gnm requires m <= n*(n-1)/2. Small --scale values shrink n (floored at 8)
/// faster than m — at scale 0.1 the dense family asks for 20000 edges on 200
/// vertices (universe 19900) — so every gnm family clamps m to its universe
/// instead of tripping the generator's invariant.
std::uint64_t clamp_to_universe(VertexId n, std::uint64_t m) {
  const std::uint64_t universe =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  return std::min(m, universe);
}

std::vector<Family> make_families(double scale, std::uint64_t seed) {
  const auto sz = [&](double base) {
    return static_cast<VertexId>(std::max(8.0, base * scale));
  };
  std::vector<Family> families;
  {
    Rng rng(seed);
    const VertexId n = sz(24000);
    families.push_back(
        {"sparse", 0, gnm(n, clamp_to_universe(n, sz(96000)), rng)});
  }
  {
    Rng rng(seed + 1);
    const VertexId n = sz(2000);
    families.push_back(
        {"dense", 0, gnm(n, clamp_to_universe(n, sz(200000)), rng)});
  }
  {
    Rng rng(seed + 2);
    const VertexId side = sz(10000);
    families.push_back({"bipartite", side,
                        random_bipartite(side, side, 6.0 / side, rng)});
  }
  {
    families.push_back({"crown_forest", 0, crown_forest(sz(1500), 5)});
  }
  return families;
}

MpcEngineConfig engine_config(const Family& f, std::size_t k,
                              std::size_t rounds) {
  MpcEngineConfig config;
  config.mpc.num_machines = k;
  // Throughput benchmark, not a memory-model experiment: budget big enough
  // that the ledger never aborts on any pinned row.
  config.mpc.memory_words = 16 * static_cast<std::uint64_t>(f.edges.num_edges()) + 4096;
  config.max_rounds = rounds;
  return config;
}

RunOutcome processed_of(const MpcExecutionStats& stats) {
  RunOutcome out;
  out.engine_rounds = stats.engine_rounds;
  out.comm_words = stats.total_comm_words;
  out.worker_forks = stats.worker_forks;
  out.worker_peak_rss_bytes = stats.worker_peak_rss_bytes;
  for (const auto& r : stats.per_round) out.processed_edges += r.active_edges;
  return out;
}

using bench::measure;  // suite_row.hpp's, beside this per-family overload

template <typename RunFn>
Row measure(const std::string& scenario, const Family& f, std::size_t k,
            std::size_t rounds, int reps, std::uint64_t seed,
            const RunFn& run) {
  return measure(scenario, f.name, k, rounds, f.edges.num_vertices(),
                 f.edges.num_edges(), reps, seed, run);
}

void write_json(const std::string& path, const std::vector<Row>& rows,
                const ExperimentSetup& setup, std::size_t threads) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  RCC_CHECK(out != nullptr);
  std::fprintf(out, "{\n  \"suite\": \"bench_suite\",\n  \"version\": 1,\n");
  std::fprintf(out,
               "  \"seed\": %llu,\n  \"scale\": %.4f,\n  \"reps\": %d,\n"
               "  \"threads\": %zu,\n  \"rows\": [\n",
               static_cast<unsigned long long>(setup.seed), setup.scale,
               setup.reps, threads);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        out,
        "    {\"scenario\": \"%s\", \"family\": \"%s\", \"transport\": "
        "\"%s\", \"k\": %zu, "
        "\"rounds\": %zu, \"n\": %u, \"m\": %zu, \"engine_rounds\": %zu, "
        "\"processed_edges\": %zu, \"solution\": %zu, \"comm_words\": %llu, "
        "\"seconds_median\": %.6f, \"seconds_min\": %.6f, "
        "\"edges_per_sec\": %.1f, \"file_bytes\": %llu, "
        "\"peak_rss_bytes\": %llu, \"worker_forks\": %llu}%s\n",
        r.scenario.c_str(), r.family.c_str(), r.transport.c_str(), r.k,
        r.rounds, r.n, r.m,
        r.engine_rounds, r.processed_edges, r.solution,
        static_cast<unsigned long long>(r.comm_words), r.seconds_median,
        r.seconds_min, r.edges_per_sec,
        static_cast<unsigned long long>(r.file_bytes),
        static_cast<unsigned long long>(r.peak_rss_bytes),
        static_cast<unsigned long long>(r.worker_forks),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s (%zu rows)\n", path.c_str(), rows.size());
}

int run_suite(int argc, char** argv) {
  Options opts(
      "bench_suite: the pinned scenario grid every perf PR diffs against");
  opts.flag("seed", "42", "PRNG seed");
  opts.flag("scale", "1.0", "instance size multiplier");
  opts.flag("reps", "3", "repetitions per row, >= 1 (median reported)");
  opts.flag("json", "", "write machine-readable results to this path");
  opts.flag("scenario", "", "only run rows whose scenario contains this substring");
  opts.flag("family", "", "only run rows whose family contains this substring");
  opts.flag("threads", "0",
            "thread-pool size, 0 .. 1024 (0 = hardware concurrency, capped "
            "at 8)");
  opts.flag("packed-scale", "1.0",
            "size multiplier for the out-of-core packed family (independent "
            "of --scale: the pack is streamed to disk, so large values are "
            "disk-bound, not RAM-bound)");
  opts.flag("packed-path", "",
            "where the packed family writes its .rgp file (empty = "
            "bench_packed.rgp in the working directory, removed afterwards; "
            "an explicit path is kept)");
  opts.flag("pool-affinity", "false",
            "pin pool workers to cores (Linux; results are identical either way)");
  opts.parse(argc, argv);

  ExperimentSetup setup;
  setup.seed =
      static_cast<std::uint64_t>(opts.get_int_in("seed", 0, INT64_MAX));
  setup.scale = opts.get_double("scale");
  setup.reps = static_cast<int>(opts.get_int_in("reps", 1, INT_MAX));
  const std::string json_path = opts.get_string("json");
  const std::string scenario_filter = opts.get_string("scenario");
  const std::string family_filter = opts.get_string("family");
  std::size_t threads =
      static_cast<std::size_t>(opts.get_int_in("threads", 0, kMaxThreadsFlag));
  if (threads == 0) {
    threads = std::min<std::size_t>(8, std::thread::hardware_concurrency());
    threads = std::max<std::size_t>(1, threads);
  }
  ThreadPoolOptions pool_options;
  pool_options.pin_affinity = opts.get_bool("pool-affinity");
  ThreadPool pool(threads, pool_options);

  std::printf(
      "=== bench_suite ===\n(seed=%llu scale=%.2f reps=%d threads=%zu "
      "affinity=%s)\n\n",
      static_cast<unsigned long long>(setup.seed), setup.scale, setup.reps,
      threads, pool_options.pin_affinity ? "on" : "off");

  const std::vector<Family> families = make_families(setup.scale, setup.seed);
  std::vector<Row> rows;

  const auto wanted = [&](const std::string& scenario, const Family& f) {
    return (scenario_filter.empty() ||
            scenario.find(scenario_filter) != std::string::npos) &&
           (family_filter.empty() ||
            f.name.find(family_filter) != std::string::npos);
  };

  for (const Family& f : families) {
    // Partitioner throughput: the shared front half of every protocol round.
    if (wanted("partition", f)) {
      rows.push_back(measure("partition", f, 8, 1, setup.reps, setup.seed,
                             [&](Rng& rng) {
                               const ShardedPartition<Edge> parts(
                                   std::span<const Edge>(f.edges.edges().data(),
                                                         f.edges.num_edges()),
                                   f.edges.num_vertices(), 8, rng, &pool);
                               RunOutcome out;
                               out.processed_edges = parts.num_edges();
                               out.solution = parts.num_machines();
                               return out;
                             }));
    }

    // Multi-round maximum-matching coreset rounds (the Theorem 1 protocol
    // iterated): THE headline perf scenario at k=8, 5 rounds.
    for (const auto& [k, rounds] :
         {std::pair<std::size_t, std::size_t>{8, 1}, {8, 5}, {4, 5}}) {
      if (!wanted("multiround_matching", f)) continue;
      rows.push_back(measure(
          "multiround_matching", f, k, rounds, setup.reps, setup.seed,
          [&, k = k, rounds = rounds](Rng& rng) {
            const auto result = coreset_mpc_matching_rounds(
                f.edges, engine_config(f, k, rounds), f.left_size, rng, &pool);
            RunOutcome out = processed_of(result.stats);
            out.solution = result.matching.size();
            return out;
          }));
    }

    if (wanted("multiround_vc", f)) {
      rows.push_back(measure(
          "multiround_vc", f, 8, 5, setup.reps, setup.seed, [&](Rng& rng) {
            const auto result = coreset_mpc_vertex_cover_rounds(
                f.edges, engine_config(f, 8, 5), rng, &pool);
            RunOutcome out = processed_of(result.stats);
            out.solution = result.cover.size();
            return out;
          }));
    }

    // Transport head-to-head: the SAME single-round coreset workload through
    // the in-process engine, forked workers over loopback sockets, and
    // forked workers over shared-memory rings. All rows produce
    // seed-for-seed identical solutions (pinned by the distributed suite),
    // so any delta is pure transport cost — fork + serialize + pipe +
    // decode, where only the pipe differs between socket and shm.
    struct TransportCase {
      const char* name;
      EngineTransport transport;
    };
    constexpr TransportCase kTransports[] = {
        {"inproc", EngineTransport::kInproc},
        {"socket", EngineTransport::kSocket},
        {"shm", EngineTransport::kShm},
    };
    for (const TransportCase& tc : kTransports) {
      const std::string scenario = std::string("transport_") + tc.name;
      if (!wanted(scenario, f)) continue;
      const bool inproc = tc.transport == EngineTransport::kInproc;
      rows.push_back(measure(
          scenario, f, 8, 1, setup.reps, setup.seed, [&, tc, inproc](Rng& rng) {
            MpcEngineConfig config = engine_config(f, 8, 1);
            config.streaming.transport = tc.transport;
            const auto result = coreset_mpc_matching_rounds(
                f.edges, config, f.left_size, rng, inproc ? &pool : nullptr);
            RunOutcome out = processed_of(result.stats);
            out.solution = result.matching.size();
            return out;
          }));
      rows.back().transport = tc.name;

      // Fork amortization at rounds=5: the production drivers converge in
      // 1-2 engine rounds, so the multi-round price is measured on a
      // recirculating harness (round-invariant build, every edge survives,
      // early stop off) that pins engine_rounds at 5 on every transport.
      // worker_forks in the JSON carries the claim: a round-invariant run
      // keeps one worker host, k forks per run on either medium.
      const std::string scenario5 = scenario + "_r5";
      if (!wanted(scenario5, f)) continue;
      rows.push_back(measure(
          scenario5, f, 8, 5, setup.reps, setup.seed, [&, tc, inproc](Rng& rng) {
            MpcEngineConfig config = engine_config(f, 8, 5);
            config.streaming.transport = tc.transport;
            config.early_stop = false;
            config.round_invariant_build = true;
            const auto build = [](EdgeSpan piece, const PartitionContext&,
                                  Rng&) { return piece.to_edge_list(); };
            const auto account = [](const EdgeList& s) {
              return MessageSize{s.num_edges(), 0};
            };
            struct RecirculatingFold {
              void absorb(EdgeList&, std::size_t, MpcRoundContext&) {}
              EdgeList finish(std::vector<EdgeList>&, MpcRoundContext& ctx,
                              Rng&) {
                ctx.survivors_out().assign(ctx.active_edges());
                return std::move(ctx.survivors_out());
              }
            } fold;
            const MpcExecutionStats stats =
                run_mpc_rounds(f.edges, config, f.left_size, rng,
                               inproc ? &pool : nullptr, build, account, fold);
            RunOutcome out = processed_of(stats);
            out.solution = 0;  // harness row: there is no solution to size
            return out;
          }));
      rows.back().transport = tc.name;
    }

    if (wanted("filtering", f)) {
      rows.push_back(measure(
          "filtering", f, 8, 12, setup.reps, setup.seed, [&](Rng& rng) {
            MpcEngineConfig config = engine_config(f, 8, 12);
            // Filtering's sample rate derives from the budget; a budget that
            // swallows the graph whole would finish in one trivial round.
            config.mpc.memory_words = std::max<std::uint64_t>(
                512, static_cast<std::uint64_t>(f.edges.num_edges()) / 2);
            const auto result =
                filtering_mpc_rounds(f.edges, config, rng, &pool);
            RunOutcome out = processed_of(result.stats);
            out.solution = result.maximal_matching.size();
            return out;
          }));
    }
  }

  // Out-of-core packed family: the .rgp ingestion path end to end. The
  // instance never lives in memory as an EdgeList — packed_stream writes a
  // uniform random multigraph record by record through PackWriter's 1 MiB
  // buffer, packed_ingest maps + full-validates it with the windowed
  // residency drop, and packed_partition / packed_mpc run the protocol
  // stack straight off the mapping. --packed-scale sizes the instance
  // independently of --scale (the file is disk-bound); file_bytes and
  // peak_rss_bytes land in the JSON rows so the out-of-core claim — RSS
  // well below file size for stream/ingest — is measurable. Each row's
  // peak is its own, but it includes what the process already holds: for
  // that claim run the family alone (--family packed), so the in-memory
  // families are not resident.
  {
    const Family packed{"packed", 0, EdgeList()};
    const bool any_packed =
        wanted("packed_stream", packed) || wanted("packed_ingest", packed) ||
        wanted("packed_partition", packed) || wanted("packed_mpc", packed);
    if (any_packed) {
      const double packed_scale = opts.get_double("packed-scale");
      const auto pn =
          static_cast<VertexId>(std::max(64.0, 100000.0 * packed_scale));
      const auto pm =
          static_cast<std::size_t>(std::max(512.0, 800000.0 * packed_scale));
      const std::uint64_t pack_bytes =
          kPackHeaderBytes + sizeof(Edge) * static_cast<std::uint64_t>(pm);
      const std::string packed_path_flag = opts.get_string("packed-path");
      const std::string packed_path =
          packed_path_flag.empty() ? "bench_packed.rgp" : packed_path_flag;
      // Every write streams the same edges (from --seed, not from the rep's
      // seed), so the mapping rows below read one pack whatever --reps is.
      const auto stream_pack = [&] {
        Rng rng(setup.seed);
        PackWriter writer(packed_path, pn, /*weighted=*/false);
        for (std::size_t i = 0; i < pm; ++i) {
          const auto u = static_cast<VertexId>(rng.next_below(pn));
          auto v = static_cast<VertexId>(rng.next_below(pn - 1));
          if (v >= u) ++v;  // uniform over the pn - 1 non-loop partners
          writer.add(u, v);
        }
        writer.finish();
      };
      const auto stamp = [&](Row& row) { row.file_bytes = pack_bytes; };
      // The file the mapping rows read must exist even when the stream row
      // itself is filtered out.
      stream_pack();

      if (wanted("packed_stream", packed)) {
        rows.push_back(measure("packed_stream", "packed", 1, 1, pn, pm,
                               setup.reps, setup.seed, [&](Rng&) {
                                 stream_pack();
                                 RunOutcome out;
                                 out.processed_edges = pm;
                                 return out;
                               }));
        stamp(rows.back());
      }

      if (wanted("packed_ingest", packed)) {
        rows.push_back(measure("packed_ingest", "packed", 1, 1, pn, pm,
                               setup.reps, setup.seed, [&](Rng&) {
                                 const MappedGraph graph(packed_path);
                                 RunOutcome out;
                                 out.processed_edges = graph.num_edges();
                                 return out;
                               }));
        stamp(rows.back());
      }

      if (wanted("packed_partition", packed) || wanted("packed_mpc", packed)) {
        const MappedGraph graph(packed_path);
        if (wanted("packed_partition", packed)) {
          rows.push_back(measure(
              "packed_partition", "packed", 8, 1, pn, pm, setup.reps,
              setup.seed, [&](Rng& rng) {
                const ShardedPartition<Edge> parts(
                    std::span<const Edge>(graph.edges().data(),
                                          graph.num_edges()),
                    graph.num_vertices(), 8, rng, &pool);
                RunOutcome out;
                out.processed_edges = parts.num_edges();
                out.solution = parts.num_machines();
                return out;
              }));
          stamp(rows.back());
        }
        if (wanted("packed_mpc", packed)) {
          MpcEngineConfig config;
          config.mpc.num_machines = 8;
          config.mpc.memory_words =
              16 * static_cast<std::uint64_t>(graph.num_edges()) + 4096;
          config.max_rounds = 1;
          rows.push_back(measure(
              "packed_mpc", "packed", 8, 1, pn, pm, setup.reps, setup.seed,
              [&](Rng& rng) {
                const auto result =
                    coreset_mpc_matching_rounds(graph, config, 0, rng, &pool);
                RunOutcome out = processed_of(result.stats);
                out.solution = result.matching.size();
                return out;
              }));
          stamp(rows.back());
        }
      }
      if (packed_path_flag.empty()) std::remove(packed_path.c_str());
    }
  }

  std::printf(
      "%-22s %-13s %2s %6s %9s %10s %11s %9s %12s\n", "scenario", "family",
      "k", "rounds", "m", "ran", "median_s", "min_s", "edges/s");
  for (const Row& r : rows) {
    std::printf("%-22s %-13s %2zu %6zu %9zu %10zu %11.4f %9.4f %12.0f\n",
                r.scenario.c_str(), r.family.c_str(), r.k, r.rounds, r.m,
                r.engine_rounds, r.seconds_median, r.seconds_min,
                r.edges_per_sec);
  }

  if (!json_path.empty()) write_json(json_path, rows, setup, threads);
  return 0;
}

}  // namespace
}  // namespace rcc::bench

int main(int argc, char** argv) { return rcc::bench::run_suite(argc, argv); }
