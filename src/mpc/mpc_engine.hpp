// Multi-round MPC executor: repeated ProtocolEngine rounds over a shrinking
// edge set.
//
// The paper's MapReduce application (Section 1.1) runs the coreset protocol
// as ONE round of an MPC computation; iterating that round on the edges the
// current solution leaves uncovered drives the approximation down. This
// executor is the generic driver for that loop:
//
//   per round:
//     partition — the surviving edges are scattered by the sharded
//                 single-arena partitioner (zero-copy shards),
//     machines  — one summary task per machine on the thread pool via
//                 run_protocol_on_pieces (forked RNG streams),
//     combine   — a pluggable ROUND-COMBINER folds the k summaries into the
//                 caller's cumulative solution and returns the edges that
//                 survive into the next round.
//
// Instantiating the executor is the engine's three-lambda pattern with the
// combine phase upgraded to a round-combiner:
//
//   build(piece, ctx, rng)            -> Summary     (as in the engine)
//   account(summary)                  -> MessageSize (as in the engine)
//   fold.absorb(summary, machine, round)             once per machine, in
//       machine order, after every summary has arrived
//   fold.finish(summaries, round, rng) -> EdgeList   survivors for the next
//       round; `round` is an MpcRoundContext: the round's input edges,
//       whether it is the last round, and ledger access for protocols that
//       model extra super-steps (e.g. filtering's broadcast round).
//
// Resources are accounted like the single-round simulator: every super-step
// is declared on an MpcLedger, every machine's residency is charged against
// the configured per-machine budget (the paper's s = O~(n sqrt(n)) regime at
// k = sqrt(n) machines), and the run aborts if any machine overfills. The
// returned MpcExecutionStats carries per-round communication words, phase
// timings, and per-machine peak memory.
//
// coreset_mpc.cpp and filtering_mpc.cpp are the in-tree instantiations, each
// with one entry point that takes an MpcEngineConfig (a single-round run is
// max_rounds = 1).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "distributed/protocol_engine.hpp"
#include "graph/edge_list.hpp"
#include "graph/edge_source.hpp"
#include "mpc/mpc.hpp"
#include "partition/sharded_partition.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace rcc {

class Options;

/// Knobs of a multi-round execution.
struct MpcEngineConfig {
  MpcConfig mpc;  // cluster shape: k machines x per-machine word budget

  /// Executor iterations allowed (>= 1); each runs one ProtocolEngine round
  /// on the surviving edges.
  std::size_t max_rounds = 1;

  /// When false, an extra "re-partition" super-step is charged up front:
  /// adversarially placed input must be shuffled before the first coreset
  /// round (coreset_mpc.hpp, Round 1).
  bool input_already_random = true;

  /// Stop as soon as an iteration leaves the surviving edge set unchanged.
  /// Runs always stop when no edges survive or the fold requests it.
  bool early_stop = true;

  /// The machine-phase transport: kSocket and kShm run every machine in a
  /// forked worker process that exchanges framed summaries with the
  /// coordinator over loopback TCP or shared-memory rings.
  StreamingOptions streaming{};

  /// Charge every machine 2*|shard| words for holding its piece of the
  /// round's input (the coreset algorithms' accounting). Protocols that
  /// model map-side residency themselves (filtering) turn this off.
  bool charge_input_residency = true;

  /// The build callable is a pure function of (piece, ctx, machine rng): it
  /// reads no captured state the round-combiner mutates between rounds.
  /// Round-invariant builds keep ONE worker host for the whole run on
  /// either cross-process transport (fork k processes at round 0 — the
  /// first round's shards ride the fork copy-on-write, later rounds ship
  /// pieces down the channels — worker_forks == k however many rounds run).
  /// Builds that read coordinator-evolving state (filtering's rate
  /// schedule) must leave this false: each round then forks fresh workers
  /// whose copy-on-write snapshot sees the fresh state. Drivers set this,
  /// not callers: it is a property of the build lambda, not of the run.
  bool round_invariant_build = false;

  /// Ledger label prefix for executor-declared super-steps.
  std::string round_label = "coreset-round";
};

/// What the round-combiner sees of one round: the input edge set it folds,
/// its position in the schedule, ledger access for extra super-steps, and
/// the run's round-persistent workspace (coordinator scratch + the reusable
/// survivor buffer).
class MpcRoundContext {
 public:
  MpcRoundContext(MpcLedger& ledger, EdgeSpan active, std::size_t round_index,
                  std::size_t max_rounds, ProtocolWorkspace* workspace = nullptr,
                  EdgeList* survivors_out = nullptr)
      : ledger_(ledger),
        active_(active),
        round_index_(round_index),
        max_rounds_(max_rounds),
        workspace_(workspace),
        survivors_out_(survivors_out) {}

  /// This round's input edges: a view of the partition arena (shards
  /// concatenated), valid only during the fold call.
  EdgeSpan active_edges() const { return active_; }

  bool last_round() const { return round_index_ + 1 == max_rounds_; }
  std::size_t num_machines() const { return ledger_.config().num_machines; }

  /// Ledger passthroughs: a combiner that needs more than the collect step
  /// (e.g. filtering's broadcast-and-filter) declares its own super-steps
  /// and charges the residency they create.
  void begin_round(const std::string& label) { ledger_.begin_round(label); }
  void charge_all(std::uint64_t words) {
    for (std::size_t i = 0; i < num_machines(); ++i) ledger_.charge(i, words);
  }

  /// Ends the execution after this round even if survivors remain.
  void request_stop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }

  /// Coordinator-side scratch for the fold phase. Never shared with the
  /// machine scratches.
  MachineScratch& coordinator_scratch() {
    RCC_CHECK(workspace_ != nullptr);
    return workspace_->coordinator();
  }

  /// The executor-owned survivor buffer for this round: cleared, capacity
  /// retained from two rounds ago (the buffers double-buffer through the
  /// executor). A fold fills it (assign_filtered / assign / add) and
  /// returns std::move(survivors_out()) from finish, making steady-state
  /// rounds allocation-free; folds may instead return any EdgeList they
  /// own — the executor accepts both shapes.
  EdgeList& survivors_out() {
    RCC_CHECK(survivors_out_ != nullptr);
    return *survivors_out_;
  }

 private:
  MpcLedger& ledger_;
  EdgeSpan active_;
  std::size_t round_index_;
  std::size_t max_rounds_;
  ProtocolWorkspace* workspace_ = nullptr;
  EdgeList* survivors_out_ = nullptr;
  bool stop_requested_ = false;
};

/// One executor iteration (one ProtocolEngine round; may span several ledger
/// super-steps when the fold declares more). Super-steps declared before the
/// first iteration — the re-partition round of adversarially placed input —
/// belong to no iteration: they appear only in MpcExecutionStats'
/// round_labels / round_peak_words ledger view, so the per-round peaks need
/// not reach max_memory_words on adversarial runs.
struct MpcRoundReport {
  std::size_t round_index = 0;
  std::size_t active_edges = 0;     // edges entering the iteration
  std::size_t surviving_edges = 0;  // edges carried into the next one
  std::uint64_t comm_words = 0;     // summary words collected by machine M
  std::uint64_t peak_machine_words = 0;  // peak residency across its steps
  /// Workspace buffer growths during this round (delta of the run
  /// workspace's WorkspaceStats). Rounds after the first are expected to
  /// report 0 — the allocation-discipline regression tested in
  /// tests/workspace_test.cpp.
  std::uint64_t workspace_allocations = 0;
  ProtocolTiming timing;
};

/// Cumulative resource story of one multi-round run.
struct MpcExecutionStats {
  std::size_t mpc_rounds = 0;     // ledger super-steps, incl. re-partition
  std::size_t engine_rounds = 0;  // executor iterations actually run
  std::uint64_t max_memory_words = 0;
  std::uint64_t total_comm_words = 0;
  /// Transport accounting of cross-process runs (zeros for inproc): worker
  /// processes forked over the whole run, uplink summary-frame bytes, and
  /// downlink piece-frame bytes. The fork-amortization claim is read here:
  /// a round-invariant run shows worker_forks == k on either medium no
  /// matter how many engine rounds ran; other builds show k per round.
  std::uint64_t worker_forks = 0;
  std::uint64_t transport_wire_bytes = 0;
  std::uint64_t transport_piece_bytes = 0;
  /// Largest peak RSS among the run's workers, in bytes (0 in-process).
  std::uint64_t worker_peak_rss_bytes = 0;
  ProtocolTiming total_timing;
  std::vector<MpcRoundReport> per_round;
  std::vector<std::string> round_labels;        // one per ledger super-step
  std::vector<std::uint64_t> round_peak_words;  // parallel to round_labels
};

/// Drives up to config.max_rounds ProtocolEngine rounds. The caller's
/// cumulative solution lives in the fold's captures; the executor owns the
/// shrinking edge set, the ledger, and the per-round accounting. The input
/// is an EdgeSource (implicit from EdgeList or MappedGraph): round 0's
/// partition reads straight from the source — for a mapped pack the
/// counting and scatter passes stream the mapping — and survivors live in
/// the workspace double-buffers from round 1 on, so the source is never
/// materialized in RAM.
///
/// The fold runs as the engine's combine, after the machine phase, on every
/// transport: machine M is charged the collected words once, then the fold
/// absorbs the summaries in machine order and finishes the round.
template <typename Build, typename Account, typename Fold>
MpcExecutionStats run_mpc_rounds(EdgeSource graph,
                                 const MpcEngineConfig& config,
                                 VertexId left_size, Rng& rng, ThreadPool* pool,
                                 const Build& build, const Account& account,
                                 Fold&& fold,
                                 ProtocolWorkspace* workspace = nullptr) {
  const std::size_t k = config.mpc.num_machines;
  RCC_CHECK(k >= 1);
  RCC_CHECK(config.max_rounds >= 1);
  const VertexId n = graph.num_vertices();

  MpcLedger ledger(config.mpc);
  MpcExecutionStats stats;

  // The run's round-persistent workspace: machine/coordinator scratches,
  // partition buffers, and the survivor double-buffer all reach their
  // high-water mark in round 0 and are reused afterwards. A caller-provided
  // workspace extends the reuse across runs (and exposes the counters).
  // One workspace serves one run at a time.
  ProtocolWorkspace local_workspace;
  ProtocolWorkspace& ws = workspace != nullptr ? *workspace : local_workspace;
  ws.ensure_machines(k);

  ShardedPartition<Edge> parts;  // persistent: the arena is grow-only
  // The survivor double-buffer rides the coordinator scratch so a warm
  // workspace carries its capacity across runs, not just across rounds.
  struct ExecutorEdgeBuffers {
    EdgeList survivors;  // owns the shrinking edge set after round 0
    EdgeList spare;      // next round's survivor buffer (double-buffered)
  };
  ExecutorEdgeBuffers& bufs =
      ws.coordinator().state<ExecutorEdgeBuffers>();
  EdgeList& survivors = bufs.survivors;
  EdgeList& spare = bufs.spare;
  survivors.reset(n);

  using Summary = std::decay_t<std::invoke_result_t<
      const Build&, EdgeSpan, const PartitionContext&, Rng&>>;
  // One worker host for the whole run: the engine spawns it inside round 0,
  // just after the first partition, so each worker's copy-on-write snapshot
  // already holds its round-0 shard; later rounds ship pieces down the
  // channels. k forks per run instead of k per round, on either medium.
  // Only round-invariant builds may keep workers: a worker's captures are
  // frozen at fork time, so a build that reads state the fold mutates
  // between rounds (filtering's rate) would compute against round-0
  // values — those runs spawn a fresh host every round.
  std::optional<WorkerHost> host;
  StreamingOptions streaming_opts = config.streaming;
  if (config.streaming.transport != EngineTransport::kInproc &&
      config.round_invariant_build) {
    streaming_opts.worker_host = &host.emplace(k, config.streaming);
  }

  for (std::size_t r = 0; r < config.max_rounds; ++r) {
    // Round 0 reads the source (for a mapped pack: straight off the mmap);
    // later rounds read the executor-owned survivor buffer.
    const EdgeSpan input = (r == 0) ? graph.edges() : EdgeSpan(survivors);
    const std::uint64_t allocations_before = ws.counters().allocations;

    // Partition phase: the engine's sharded single-arena partitioner over
    // the surviving edges.
    WallTimer timer;
    parts.repartition(std::span<const Edge>(input.data(), input.num_edges()),
                      n, k, rng, pool, &ws.partition(),
                      arena_backing_for(config.streaming.transport));
    const double partition_seconds = timer.seconds();

    if (r == 0 && !config.input_already_random) {
      // Adversarially placed input pays the shuffle super-step first; the
      // receiver side is charged with the shard sizes round 0 actually
      // processes (the realized random k-partitioning).
      std::vector<std::size_t> delivered(k);
      for (std::size_t i = 0; i < k; ++i) delivered[i] = parts.shard_size(i);
      mpc_reshuffle_round(input.num_edges(), delivered, ledger);
    }

    const std::size_t first_step = ledger.rounds();
    ledger.begin_round(config.round_label + "-" + std::to_string(r));
    if (config.charge_input_residency) {
      for (std::size_t i = 0; i < k; ++i) {
        ledger.charge(i, 2 * parts.shard_size(i));
      }
    }

    // Machine + combine phases on the ProtocolEngine. Machine M is charged
    // for the collected summaries before the fold's processing runs (and
    // before any super-step the fold opens), mirroring the coreset round's
    // "send everything to M" collect.
    spare.reset(n);  // cleared, capacity retained from two rounds ago
    MpcRoundContext round_ctx(
        ledger, EdgeSpan(parts.arena().data(), parts.num_edges(), n), r,
        config.max_rounds, &ws, &spare);
    const auto combine = [&](std::vector<Summary>& summaries,
                             Rng& coordinator_rng) -> EdgeList {
      // account is a pure cost function (the engine already evaluated it
      // into comm.per_machine); re-summing here keeps the combine
      // independent of the engine result's layout.
      std::uint64_t collected = 0;
      for (const Summary& s : summaries) collected += account(s).words();
      ledger.charge(0, collected);
      for (std::size_t i = 0; i < summaries.size(); ++i) {
        fold.absorb(summaries[i], i, round_ctx);
      }
      return fold.finish(summaries, round_ctx, coordinator_rng);
    };
    auto result = run_protocol_on_pieces<Edge>(pieces_of(parts), n, left_size,
                                               rng, pool, build, account,
                                               combine, streaming_opts, &ws);
    result.timing.partition_seconds = partition_seconds;

    const std::size_t active = input.num_edges();
    // Double-buffer: the round's input storage becomes the NEXT round's
    // survivor buffer (spare), and the fold's output — typically the moved-
    // out spare — becomes the input. After two rounds both buffers sit at
    // their high-water capacity and the handoff allocates nothing (`input`
    // is dead past this point, so recycling its storage is safe; at r == 0
    // the swap hands a warm workspace's prior-run capacity back to spare).
    EdgeList produced = std::move(result.solution);
    std::swap(spare, survivors);
    survivors = std::move(produced);
    ++stats.engine_rounds;
    stats.total_comm_words += result.comm.total_words();
    stats.worker_forks += result.transport.forks;
    stats.transport_wire_bytes += result.transport.wire_bytes;
    stats.transport_piece_bytes += result.transport.piece_bytes;
    stats.worker_peak_rss_bytes = std::max(
        stats.worker_peak_rss_bytes, result.transport.worker_peak_rss_bytes);
    stats.total_timing.partition_seconds += result.timing.partition_seconds;
    stats.total_timing.summaries_seconds += result.timing.summaries_seconds;
    stats.total_timing.combine_seconds += result.timing.combine_seconds;

    MpcRoundReport report;
    report.round_index = r;
    report.active_edges = active;
    report.surviving_edges = survivors.num_edges();
    report.comm_words = result.comm.total_words();
    for (std::size_t s = first_step; s < ledger.rounds(); ++s) {
      report.peak_machine_words =
          std::max(report.peak_machine_words, ledger.round_peak_words()[s]);
    }
    report.workspace_allocations =
        ws.counters().allocations - allocations_before;
    report.timing = result.timing;
    stats.per_round.push_back(report);

    if (round_ctx.stop_requested() || survivors.empty()) break;
    // Stagnation: the round left the surviving edge set as large as it was.
    if (config.early_stop && survivors.num_edges() == active) break;
  }

  if (host) {
    // Exit handshake: a shutdown frame per worker, then a bounded reap.
    host->send_shutdown();
    host->reap();
    stats.worker_peak_rss_bytes =
        std::max(stats.worker_peak_rss_bytes, host->worker_peak_rss_bytes());
  }

  stats.mpc_rounds = ledger.rounds();
  stats.max_memory_words = ledger.max_memory_words();
  stats.round_labels = ledger.round_labels();
  stats.round_peak_words = ledger.round_peak_words();
  return stats;
}

/// Registers the executor's command-line knobs on an Options parser:
///   --mpc-machines       cluster size k (0 = paper default, sqrt(n))
///   --mpc-memory-budget  per-machine budget in words (0 = paper default,
///                        the O~(n sqrt(n)) regime)
///   --mpc-rounds         executor iterations (multi-round MPC)
///   --mpc-random-input   input already randomly partitioned (skips the
///                        re-partition round)
///   --mpc-early-stop     stop when a round leaves the survivors unshrunk
/// plus the engine transport knobs (add_streaming_flags):
///   --engine-transport / --engine-transport-timeout-ms /
///   --engine-shm-ring-bytes
void add_mpc_engine_flags(Options& options);

/// Reads the knobs registered by add_mpc_engine_flags back into a config for
/// an n-vertex instance (zeros fall back to MpcConfig::paper_default(n)).
MpcEngineConfig mpc_engine_config_from_options(const Options& options,
                                               VertexId n);

}  // namespace rcc
