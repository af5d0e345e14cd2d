// perfbench: the repository benchmark binary (built and driven by run.py).
//
//   perfbench --workload simul_inproc|rounds_shm|packed_ooc --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics: a closed loop with one client
// runs solves back to back for S seconds, checks every output, and prints
// the timings, the exact counters and the solution quality. --trace 1 runs
// the same solves with the layer replay (bench.hpp) beside them and prints
// the per-layer metrics; the spans go to a Chrome trace-event file.
//
// The last stdout line is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}};
// the "exact " line before it holds the per-solve means, over the request
// schedule, of the counters that repeat exactly at a fixed seed.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "matching/max_matching.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0.0) usage("--seconds must be positive");
  return args;
}

double median(std::vector<double> v) {
  RCC_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  RCC_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// Metric name -> (value, unit), printed in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const char* unit) {
    if (values_.count(name) == 0) order_.push_back(name);
    values_[name] = {value, unit};
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < order_.size(); ++i) {
      const auto& [value, unit] = values_.at(order_[i]);
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", order_[i].c_str(), value, unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, const char*>> values_;
};

/// The counters that repeat exactly at a fixed seed.
struct Exact {
  std::uint64_t comm_words = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t worker_forks = 0;
  std::uint64_t engine_rounds = 0;
  std::uint64_t matching_size = 0;
  std::uint64_t cover_size = 0;

  static Exact of(const SolveOutcome& o) {
    return Exact{o.comm_words, o.wire_bytes, o.forks, o.engine_rounds,
                 o.matching.size(), o.cover.size()};
  }
  bool operator==(const Exact&) const = default;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.json().c_str());
}

struct Run {
  Args args;
  WorkloadSpec spec;
  Instance instance;
  std::unique_ptr<rcc::ThreadPool> pool;
  std::vector<double> setup_seconds;
  std::vector<std::uint64_t> max_matching;  // per graph
};

/// Builds the run's input (the same graphs every time: same seed) and times
/// it. The first build becomes the run's instance; later ones only add a
/// timing and are dropped, so the solves keep one memory layout. Freed heap
/// goes back to the kernel either way: every forked worker copies the
/// coordinator's page tables, so a bloated heap would slow the solves.
void setup_once(Run& run) {
  const std::string pack_prefix = run.args.work_dir + "/" + run.spec.name;
  rcc::WallTimer timer;
  Instance instance = setup_instance(run.spec, run.args.seed, pack_prefix);
  run.setup_seconds.push_back(timer.seconds());
  if (run.setup_seconds.size() == 1) run.instance = std::move(instance);
  instance = Instance();
  malloc_trim(0);
}

/// Solve, time, and check once. Returns the error ("" when the outputs are
/// a valid matching and cover of the input).
std::string timed_solve(Run& run, const Request& request, double& seconds,
                        SolveOutcome& outcome) {
  rcc::WallTimer timer;
  const SolveInput input(run.spec, run.instance, request.graph);
  outcome = engine_solve(run.spec, input.source(), request.solve_seed,
                         run.pool.get(), run.spec.max_rounds);
  seconds = timer.seconds();
  return check_outcome(outcome, input.source());
}

int run_untraced(Run& run) {
  constexpr std::uint64_t kWarmupSolves = 2;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Each request's exact counters, from the first time it is served.
  std::vector<std::optional<Exact>> exact(kRequests);
  std::size_t served = 0;
  const auto record = [&](std::uint64_t index, const std::string& error,
                          const SolveOutcome& o) {
    ++attempted;
    bool bad = !error.empty();
    if (bad) std::fprintf(stderr, "perfbench: invalid output: %s\n", error.c_str());
    std::optional<Exact>& slot = exact[index % kRequests];
    if (!slot) {
      slot = Exact::of(o);
      ++served;
    } else if (!(*slot == Exact::of(o))) {
      std::fprintf(stderr, "perfbench: exact counters of request %llu changed\n",
                   static_cast<unsigned long long>(index % kRequests));
      bad = true;
    }
    if (bad) ++failed;
  };

  SolveOutcome outcome;
  double seconds = 0.0;
  std::uint64_t index = 0;
  for (; index < kWarmupSolves; ++index) {
    const Request request = request_of(run.args.seed, index);
    record(index, timed_solve(run, request, seconds, outcome), outcome);
  }
  // The peak covers the measured solves only: VmHWM is reset after set-up
  // and warm-up, and again after each set-up repetition inside the loop.
  // Forked workers are added through RUSAGE_CHILDREN.
  const bool rss_reset = reset_peak_rss();
  double self_peak_mb = 0.0;
  // Set-up is gated, and its cost drifts with machine load over seconds, so
  // its repetitions are spread across the run instead of bunched at the
  // start; the reported value is their median.
  constexpr std::size_t kSetupReps = 5;
  std::vector<double> solve_seconds;
  std::vector<std::vector<double>> request_seconds(kRequests);
  rcc::WallTimer loop;
  while (served < kRequests || loop.seconds() < run.args.seconds) {
    const std::size_t reps = run.setup_seconds.size();
    if (reps < kSetupReps &&
        loop.seconds() >= run.args.seconds * static_cast<double>(reps) /
                              static_cast<double>(kSetupReps)) {
      self_peak_mb = std::max(self_peak_mb, self_peak_rss_mb());
      setup_once(run);
      reset_peak_rss();
    }
    const Request request = request_of(run.args.seed, index);
    const std::string error = timed_solve(run, request, seconds, outcome);
    solve_seconds.push_back(seconds);
    request_seconds[index % kRequests].push_back(seconds);
    record(index, error, outcome);
    ++index;
  }
  const double peak_mb = std::max(self_peak_mb, self_peak_rss_mb()) +
                         children_peak_rss_mb();
  double busy = 0.0;
  for (double s : solve_seconds) busy += s;
  // The tail is taken over the request schedule, each request at the median
  // of its servings: the slow partitions show, while a burst of load from
  // elsewhere on the host, which hits one serving of a request and not the
  // others, does not.
  std::vector<double> request_medians;
  for (const std::vector<double>& s : request_seconds) {
    if (!s.empty()) request_medians.push_back(median(s));
  }

  // Per-solve means over the request schedule (deterministic: every
  // request's counters are exact).
  Exact sum;
  double matching_ratio = 0.0;
  double cover_ratio = 0.0;
  for (std::size_t r = 0; r < kRequests; ++r) {
    const Exact& e = *exact[r];
    sum.comm_words += e.comm_words;
    sum.wire_bytes += e.wire_bytes;
    sum.worker_forks += e.worker_forks;
    sum.engine_rounds += e.engine_rounds;
    sum.matching_size += e.matching_size;
    sum.cover_size += e.cover_size;
    const double opt = static_cast<double>(std::max<std::uint64_t>(
        run.max_matching[request_of(run.args.seed, r).graph], 1));
    matching_ratio += static_cast<double>(e.matching_size) / opt;
    cover_ratio += static_cast<double>(e.cover_size) / opt;
  }
  const double per = 1.0 / static_cast<double>(kRequests);
  std::uint64_t max_matching_sum = 0;
  for (std::uint64_t mm : run.max_matching) max_matching_sum += mm;

  std::printf(
      "exact {\"comm_words\": %.17g, \"wire_bytes\": %.17g, "
      "\"worker_forks\": %.17g, \"engine_rounds\": %.17g, "
      "\"matching_size\": %.17g, \"cover_size\": %.17g, "
      "\"max_matching_sum\": %llu}\n",
      per * static_cast<double>(sum.comm_words),
      per * static_cast<double>(sum.wire_bytes),
      per * static_cast<double>(sum.worker_forks),
      per * static_cast<double>(sum.engine_rounds),
      per * static_cast<double>(sum.matching_size),
      per * static_cast<double>(sum.cover_size),
      static_cast<unsigned long long>(max_matching_sum));
  std::printf(
      "info {\"solves\": %zu, \"p90_all_solves_s\": %.6g, \"fail_rate\": %.6g, "
      "\"rss_reset\": %s, \"pack_bytes\": %llu}\n",
      solve_seconds.size(), percentile(solve_seconds, 0.9),
      static_cast<double>(failed) / static_cast<double>(attempted),
      rss_reset ? "true" : "false",
      static_cast<unsigned long long>(run.instance.pack_bytes));

  Metrics metrics;
  metrics.set("setup_s", median(run.setup_seconds), "s");
  metrics.set("solve_s_p50", median(solve_seconds), "s");
  metrics.set("solve_s_p90", percentile(request_medians, 0.9), "s");
  metrics.set("edges_per_s",
              static_cast<double>(run.spec.m) *
                  static_cast<double>(solve_seconds.size()) / busy,
              "edges/s");
  metrics.set("comm_words", per * static_cast<double>(sum.comm_words), "words");
  metrics.set("engine_rounds", per * static_cast<double>(sum.engine_rounds),
              "count");
  metrics.set("peak_rss_mb", peak_mb, "MiB");
  metrics.set("matching_ratio", per * matching_ratio, "ratio");
  metrics.set("cover_ratio", per * cover_ratio, "ratio");
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

/// One traced iteration's per-layer numbers.
using LayerSample = std::map<std::string, double>;

int run_traced(Run& run) {
  const WorkloadSpec& spec = run.spec;
  Tracer tracer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "perfbench: %s\n", what.c_str());
    ++failed;
  };

  // Graph layer on this workload's input. packed_ooc's pack writes are its
  // setup; an in-memory graph is packed here so the ingest path is measured
  // on every workload.
  const std::string replay_pack = run.args.work_dir + "/" + spec.name + "-replay.rgp";
  std::vector<double> pack_write;
  if (spec.kind == Kind::kPackedOoc) {
    for (double s : run.setup_seconds) {
      pack_write.push_back(s / static_cast<double>(kGraphs));
    }
  } else {
    for (int i = 0; i < 3; ++i) {
      const int span = tracer.open("GraphPack::write", "graph");
      rcc::GraphPack::write(run.instance.graphs.front(), replay_pack);
      pack_write.push_back(tracer.close(span));
    }
  }

  // The single-round solve of every workload must replay exactly, on
  // every graph.
  for (std::uint64_t r = 0; r < kGraphs; ++r) {
    const Request request = request_of(run.args.seed, r);
    const SolveInput input(spec, run.instance, request.graph);
    const SolveOutcome engine = engine_solve(spec, input.source(),
                                             request.solve_seed, run.pool.get(), 1);
    ReplayStats unused;
    const SolveOutcome replay =
        replay_solve(spec, input.source(), request.solve_seed, run.pool.get(),
                     1, tracer, unused);
    ++attempted;
    const std::string diff = compare_outcomes(engine, replay);
    if (!diff.empty()) fail("single-round replay mismatch: " + diff);
  }

  std::vector<LayerSample> samples;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  rcc::WallTimer loop;
  std::uint64_t index = 0;
  while (samples.size() < 3 || loop.seconds() < run.args.seconds) {
    const Request request = request_of(run.args.seed, index++);
    tracer.set_solve(index);
    LayerSample x;

    // Untraced engine solve: the reference for the tracing overhead.
    {
      double seconds = 0.0;
      SolveOutcome outcome;
      const std::string error = timed_solve(run, request, seconds, outcome);
      untraced_s.push_back(seconds);
      if (!error.empty()) fail("invalid output: " + error);
    }

    // Traced engine solve: spans around the graph and engine calls, plus
    // the engine's own timing and transport telemetry.
    const int root = tracer.open("engine solve", "solve");
    int span = tracer.open("MappedGraph / EdgeSource", "graph");
    const SolveInput input(spec, run.instance, request.graph);
    tracer.close(span);
    span = tracer.open("engine", "distributed");
    const SolveOutcome engine =
        engine_solve(spec, input.source(), request.solve_seed, run.pool.get(),
                     spec.max_rounds);
    tracer.close(span);
    tracer.counter("comm_words", static_cast<double>(engine.comm_words));
    tracer.counter("wire_bytes", static_cast<double>(engine.wire_bytes));
    traced_s.push_back(tracer.close(root));

    if (spec.kind == Kind::kPackedOoc) {
      x["graph.ingest_s"] = input.ingest_s();
    } else {
      span = tracer.open("MappedGraph", "graph");
      const rcc::MappedGraph mapped(replay_pack);
      x["graph.ingest_s"] = tracer.close(span);
    }

    // Layer replay of the same solve.
    ReplayStats st;
    const SolveOutcome replay =
        replay_solve(spec, input.source(), request.solve_seed, run.pool.get(),
                     spec.max_rounds, tracer, st);
    ++attempted;
    const std::string diff = compare_outcomes(engine, replay);
    if (!diff.empty()) fail("replay mismatch: " + diff);

    // The mpc layer: the workload's own executor rounds, or the same solve
    // through the executor as one round.
    std::vector<rcc::MpcRoundReport> rounds = engine.rounds;
    if (spec.kind != Kind::kRoundsShm) {
      span = tracer.open("run_mpc_rounds x1", "mpc");
      const SolveOutcome mpc = engine_solve_mpc(
          spec, input.source(), request.solve_seed, run.pool.get(), 1);
      tracer.close(span);
      rounds = mpc.rounds;
      const std::string mpc_diff = compare_outcomes(engine, mpc);
      if (!mpc_diff.empty()) fail("one-round executor mismatch: " + mpc_diff);
    }

    x["partition.s"] = st.partition_s;
    x["partition.calls"] = static_cast<double>(st.partition_calls);
    x["partition.edges_per_s"] =
        static_cast<double>(st.partition_edges) / st.partition_s;
    x["coreset.build_s"] = st.build_s;
    x["coreset.build_s_max"] = st.build_s_max;
    x["coreset.keep_ratio"] = static_cast<double>(st.summary_edges) /
                              static_cast<double>(std::max<std::uint64_t>(st.piece_edges, 1));
    x["matching.compose_s"] = st.matching_compose_s;
    x["matching.union_edges"] = static_cast<double>(st.matching_union_edges);
    x["vertex_cover.compose_s"] = st.vc_compose_s;
    x["vertex_cover.fixed_share"] =
        static_cast<double>(st.fixed_in_cover) /
        static_cast<double>(std::max<std::size_t>(replay.cover.size(), 1));
    x["distributed.encode_s"] = st.encode_s;
    x["distributed.decode_s"] = st.decode_s;
    x["distributed.frame_bytes"] = static_cast<double>(st.frame_bytes);
    x["distributed.machine_phase_s"] = engine.timing.summaries_seconds;
    x["distributed.partition_s"] = engine.timing.partition_seconds;
    x["distributed.combine_s"] = engine.timing.combine_seconds;
    // What the replay's machine work does not explain, spread over the
    // lanes the engine runs it on. In-process machines do no wire work.
    const bool in_process = spec.transport == rcc::EngineTransport::kInproc;
    const double lanes =
        in_process ? static_cast<double>(std::min(
                         spec.k, std::max<std::size_t>(spec.threads, 1)))
                   : static_cast<double>(spec.k);
    const double explained =
        in_process ? st.build_s : st.build_s + st.encode_s + st.decode_s;
    x["distributed.transport_overhead_s"] =
        engine.timing.summaries_seconds - explained / lanes;
    x["distributed.forks"] = static_cast<double>(engine.forks);
    x["distributed.piece_bytes"] = static_cast<double>(engine.piece_bytes);
    x["distributed.wire_bytes"] = static_cast<double>(engine.wire_bytes);

    double round_s = 0.0;
    double active = 0.0;
    double surviving = 0.0;
    double peak_words = 0.0;
    double allocations = 0.0;
    for (const rcc::MpcRoundReport& r : rounds) {
      round_s += r.timing.partition_seconds + r.timing.summaries_seconds +
                 r.timing.combine_seconds;
      active += static_cast<double>(r.active_edges);
      surviving += static_cast<double>(r.surviving_edges);
      peak_words = std::max(peak_words, static_cast<double>(r.peak_machine_words));
      allocations += static_cast<double>(r.workspace_allocations);
    }
    x["mpc.round_s"] = round_s;
    x["mpc.survivor_ratio"] = surviving / std::max(active, 1.0);
    x["mpc.peak_machine_words"] = peak_words;
    x["mpc.workspace_allocations"] = allocations;
    samples.push_back(std::move(x));
  }

  const auto med = [&](const std::string& name) {
    std::vector<double> v;
    for (const LayerSample& s : samples) v.push_back(s.at(name));
    return median(v);
  };
  const double ingest_s = med("graph.ingest_s");
  Metrics metrics;
  metrics.set("graph.pack_write_s", median(pack_write), "s");
  metrics.set("graph.ingest_s", ingest_s, "s");
  metrics.set("graph.ingest_edges_per_s",
              static_cast<double>(spec.m) / ingest_s, "edges/s");
  const std::pair<const char*, const char*> layer_metrics[] = {
      {"partition.s", "s"},
      {"partition.calls", "count"},
      {"partition.edges_per_s", "edges/s"},
      {"coreset.build_s", "s"},
      {"coreset.build_s_max", "s"},
      {"coreset.keep_ratio", "ratio"},
      {"matching.compose_s", "s"},
      {"matching.union_edges", "count"},
      {"vertex_cover.compose_s", "s"},
      {"vertex_cover.fixed_share", "ratio"},
      {"distributed.encode_s", "s"},
      {"distributed.decode_s", "s"},
      {"distributed.frame_bytes", "bytes"},
      {"distributed.machine_phase_s", "s"},
      {"distributed.partition_s", "s"},
      {"distributed.combine_s", "s"},
      {"distributed.transport_overhead_s", "s"},
      {"distributed.forks", "count"},
      {"distributed.piece_bytes", "bytes"},
      {"distributed.wire_bytes", "bytes"},
      {"mpc.round_s", "s"},
      {"mpc.survivor_ratio", "ratio"},
      {"mpc.peak_machine_words", "words"},
      {"mpc.workspace_allocations", "count"},
  };
  for (const auto& [name, unit] : layer_metrics) {
    metrics.set(name, med(name), unit);
  }
  metrics.set("trace.overhead_s", median(traced_s) - median(untraced_s), "s");

  if (spec.kind != Kind::kPackedOoc) std::remove(replay_pack.c_str());
  const std::string trace_out =
      !run.args.trace_out.empty()
          ? run.args.trace_out
          : run.args.work_dir + "/trace-" + spec.name + ".json";
  if (!tracer.write_chrome_trace(trace_out)) {
    fail("cannot write trace file " + trace_out);
  }
  std::printf("info {\"iterations\": %zu, \"trace_file\": \"%s\", "
              "\"spans\": %zu}\n",
              samples.size(), trace_out.c_str(), tracer.spans().size());
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Run run;
  run.args = parse_args(argc, argv);
  if (!workload_spec(run.args.workload, 1.0, run.spec)) {
    usage(("unknown workload '" + run.args.workload + "'").c_str());
  }
  if (run.spec.threads > 0) {
    run.pool = std::make_unique<rcc::ThreadPool>(run.spec.threads);
  }
  const bool forks = run.spec.transport != rcc::EngineTransport::kInproc;
  std::printf(
      "workload {\"k\": %zu, \"threads\": %zu, \"worker_processes\": %zu, "
      "\"n\": %u, \"m\": %llu, \"graphs\": %zu, \"requests\": %zu}\n",
      run.spec.k, std::max<std::size_t>(run.spec.threads, 1),
      forks ? run.spec.k : 0, run.spec.n,
      static_cast<unsigned long long>(run.spec.m), kGraphs, kRequests);
  // The traced run needs no set-up figure but packed_ooc's pack-write
  // layer time, so it sets up three times at the start.
  for (int i = 0; i < (run.args.trace ? 3 : 1); ++i) setup_once(run);
  // Quality reference, once per graph, outside every timed region.
  for (std::size_t g = 0; g < kGraphs; ++g) {
    const SolveInput input(run.spec, run.instance, g);
    run.max_matching.push_back(
        rcc::maximum_matching_size(input.source().edges(), run.spec.left_size));
  }

  const int code = run.args.trace ? run_traced(run) : run_untraced(run);
  for (const std::string& path : run.instance.pack_paths) {
    std::remove(path.c_str());
  }
  return code;
}
