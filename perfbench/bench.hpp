// The repository benchmark: three closed-loop workloads over the paper's
// protocols, the per-solve output checks, and the traced layer replay.
//
// One solve = one matching run plus one vertex-cover run on the same graph,
// both drawing from one Rng seeded per solve. A run cycles through a fixed
// schedule of kRequests requests (graph, solve seed), all derived from
// --seed: solve times depend strongly on the random partition, so the
// medians cover many partitions and several graphs. Each request's exact
// metrics (communication, bytes, forks, rounds, solution sizes) are
// identical every time it is served, and run to run at a fixed --seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/edge_source.hpp"
#include "graph/graph_pack.hpp"
#include "matching/matching.hpp"
#include "mpc/mpc_engine.hpp"
#include "util/thread_pool.hpp"
#include "vertex_cover/vertex_cover.hpp"

namespace perfbench {

using rcc::VertexId;

enum class Kind { kSimulInproc, kRoundsShm, kPackedOoc };

/// A workload's shape: the graph, the cluster, and the transport.
struct WorkloadSpec {
  std::string name;
  Kind kind = Kind::kSimulInproc;
  VertexId n = 0;
  std::uint64_t m = 0;
  VertexId left_size = 0;      // > 0: bipartite instance, left side [0, left)
  std::size_t k = 0;           // machines
  std::size_t threads = 0;     // coordinator thread pool (0 = none)
  std::size_t max_rounds = 1;  // multi-round drivers only
  rcc::EngineTransport transport = rcc::EngineTransport::kInproc;
};

/// The named workload; `scale` < 1 shrinks the graph (the self-test's small
/// instances). Returns false for an unknown name.
bool workload_spec(const std::string& name, double scale, WorkloadSpec& out);

/// Graphs per run and requests per schedule cycle.
inline constexpr std::size_t kGraphs = 4;
inline constexpr std::size_t kRequests = 64;

/// The workload's input, built once per run from the seed: kGraphs graphs.
/// In-memory workloads hold them; packed_ooc holds only the pack paths.
struct Instance {
  std::vector<rcc::EdgeList> graphs;
  std::vector<std::string> pack_paths;
  std::uint64_t pack_bytes = 0;  // per pack
};

/// Builds the input: generates the graphs, or streams each pack to
/// `<pack_prefix>-<i>.rgp` through PackWriter without materializing it.
Instance setup_instance(const WorkloadSpec& spec, std::uint64_t seed,
                        const std::string& pack_prefix);

/// One entry of the run's request schedule.
struct Request {
  std::size_t graph = 0;
  std::uint64_t solve_seed = 0;
};

/// Request `index % kRequests` of the schedule derived from `seed`.
Request request_of(std::uint64_t seed, std::uint64_t index);

/// What one solve produced, plus the engine's own telemetry.
struct SolveOutcome {
  rcc::Matching matching;
  rcc::VertexCover cover;
  std::uint64_t comm_words = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t piece_bytes = 0;
  std::uint64_t forks = 0;
  std::uint64_t engine_rounds = 0;
  rcc::ProtocolTiming timing;                  // summed over both runs
  std::vector<rcc::MpcRoundReport> rounds;     // executor runs only
};

/// The graph a solve reads: the in-memory list, or a fresh full-validating
/// mapping of the pack (opening it is part of packed_ooc's solve).
class SolveInput {
 public:
  SolveInput(const WorkloadSpec& spec, const Instance& instance,
             std::size_t graph);
  rcc::EdgeSource source() const;
  double ingest_s() const { return ingest_s_; }

 private:
  const rcc::EdgeList* list_ = nullptr;
  std::unique_ptr<rcc::MappedGraph> mapped_;
  double ingest_s_ = 0.0;
};

/// The untraced solve, exactly as a user calls the library. `max_rounds`
/// overrides the spec (1 gives the workload's single-round solve).
SolveOutcome engine_solve(const WorkloadSpec& spec, rcc::EdgeSource graph,
                          std::uint64_t solve_seed, rcc::ThreadPool* pool,
                          std::size_t max_rounds);

/// The same solve through the multi-round executor (run_mpc_rounds) on the
/// workload's transport. With max_rounds = 1 it is the single-round protocol
/// seed for seed; its MpcRoundReports give the mpc layer's numbers on the
/// workloads whose own solve does not go through the executor.
SolveOutcome engine_solve_mpc(const WorkloadSpec& spec, rcc::EdgeSource graph,
                              std::uint64_t solve_seed, rcc::ThreadPool* pool,
                              std::size_t max_rounds);

/// Output check: the matching is a matching of `graph` and the cover covers
/// every edge of it. Returns an empty string when both hold.
std::string check_outcome(const SolveOutcome& outcome, rcc::EdgeSource graph);

/// ---- Tracing -----------------------------------------------------------

/// One completed span: Chrome trace-event "X" record.
struct Span {
  std::string name;
  const char* layer = "";
  double start_us = 0.0;
  double dur_us = 0.0;
  int parent = -1;  // index into the tracer's span vector, -1 for roots
  std::uint64_t solve = 0;
};

/// A named counter sample (Chrome trace-event "C" record).
struct CounterSample {
  std::string name;
  double ts_us = 0.0;
  double value = 0.0;
};

/// In-memory span recorder. Spans nest by open/close order; everything is
/// kept until write_chrome_trace at the end of the run.
class Tracer {
 public:
  Tracer();
  int open(std::string name, const char* layer);
  /// Closes span `id` and returns its duration in seconds.
  double close(int id);
  void counter(std::string name, double value);
  void set_solve(std::uint64_t solve) { solve_ = solve; }

  const std::vector<Span>& spans() const { return spans_; }
  /// Duration of span `id` minus the parts its direct children cover.
  double self_seconds(int id) const;
  bool write_chrome_trace(const std::string& path) const;

 private:
  double now_us() const;
  std::vector<Span> spans_;
  std::vector<CounterSample> counters_;
  std::vector<int> stack_;
  std::uint64_t solve_ = 0;
  std::int64_t origin_ns_ = 0;
};

/// Per-layer totals of one replayed solve.
struct ReplayStats {
  double partition_s = 0.0;
  std::uint64_t partition_calls = 0;
  std::uint64_t partition_edges = 0;
  double build_s = 0.0;      // summed over machines
  double build_s_max = 0.0;  // slowest machine, summed over rounds
  std::uint64_t piece_edges = 0;
  std::uint64_t summary_edges = 0;
  double encode_s = 0.0;
  double decode_s = 0.0;
  std::uint64_t frame_bytes = 0;
  double matching_compose_s = 0.0;
  std::uint64_t matching_union_edges = 0;
  double vc_compose_s = 0.0;
  std::uint64_t fixed_in_cover = 0;  // cover vertices machines fixed
};

/// Replays one solve through the layers' public functions, in the engine's
/// RNG order: ShardedPartition, Rng::fork() x k, per-piece build,
/// encode_frame / decode_frame_payload, then compose (and, for the
/// multi-round drivers, the round fold). The result must equal
/// engine_solve's matching, cover, comm_words and engine_rounds.
SolveOutcome replay_solve(const WorkloadSpec& spec, rcc::EdgeSource graph,
                          std::uint64_t solve_seed, rcc::ThreadPool* pool,
                          std::size_t max_rounds, Tracer& tracer,
                          ReplayStats& stats);

/// Empty when the two outcomes agree on solution and exact counters.
std::string compare_outcomes(const SolveOutcome& engine,
                             const SolveOutcome& replay);

/// ---- Memory ------------------------------------------------------------

/// Resets this process's VmHWM to its current RSS; false if unsupported.
bool reset_peak_rss();
/// This process's VmHWM, in MiB.
double self_peak_rss_mb();
/// The largest reaped child's peak RSS (RUSAGE_CHILDREN), in MiB.
double children_peak_rss_mb();

}  // namespace perfbench
