// The unified simultaneous-protocol engine (coordinator model, Section 2).
//
// Every protocol in this library — unweighted/weighted matching,
// unweighted/weighted/grouped vertex cover, and the MPC simulation's
// coreset round — is one instance of the same three-phase pipeline:
//
//   partition  — the sharded partitioner scatters the input into one flat
//                edge arena with a per-machine offset index (zero-copy
//                pieces; see partition/sharded_partition.hpp),
//   machines   — every machine builds its summary from its arena shard,
//                one task per machine on the thread pool, each with an
//                up-front forked RNG stream so results are independent of
//                thread scheduling,
//   combine    — the coordinator folds the k summaries into a solution
//                (matching solver / VC union / weighted merge — pluggable).
//
// The engine is generic over the edge payload (Edge / WeightedEdge), the
// summary type, and the three phase callables, and returns a unified
// ProtocolResult carrying the solution, the retained summaries, word-exact
// communication stats, and per-phase wall timings. Each entry point in
// protocol.hpp / protocols.hpp / weighted_*_protocol.hpp is one call of
// run_protocol (run_protocol_on_pieces for pre-made pieces) with its three
// phase lambdas.
//
// Adding a protocol variant means writing three lambdas — see protocol.cpp
// for the pattern; no new driver loop, accounting, or timing code.
//
// The coordinator combine runs once, after the machine phase, on every
// transport: machines (threads, or forked workers behind a WorkerHost —
// worker_host.hpp) fill the k-slot summary vector, the engine accounts the
// summaries in machine order, and combine(summaries, rng) folds them.
// Combiners never race a build. A process transport takes Edge pieces and a
// summary with a wire layout (an EdgeList or a VcCoresetOutput,
// summary_wire.hpp); the weighted and grouped protocols run in process.
//
// A machine holds only its piece. On a process transport the partition
// arena is a shared mapping (arena_backing_for), so a forked worker maps
// none of it until it reads its own shard. run_protocol frees the arena as
// soon as no machine reads it — on a process transport once every worker is
// forked and has its round-0 frame (the piece rode the fork), in-process
// right after the machine phase — so the received summaries and the
// combine do not stack on top of it.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "distributed/message.hpp"
#include "distributed/summary_wire.hpp"
#include "distributed/worker_host.hpp"
#include "graph/edge_source.hpp"
#include "partition/partition.hpp"
#include "partition/sharded_partition.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/workspace.hpp"

namespace rcc {

class Options;

/// Wall time of each engine phase.
struct ProtocolTiming {
  double partition_seconds = 0.0;
  double summaries_seconds = 0.0;  // wall time of the machine phase,
                                   // including the transport's decode
  double combine_seconds = 0.0;    // wall time of the coordinator combine
};

/// What crossed a process boundary; all zeros for in-process runs.
struct TransportTelemetry {
  EngineTransport kind = EngineTransport::kInproc;
  std::uint64_t wire_bytes = 0;  // framed bytes received (headers + payloads)
  std::uint64_t frames = 0;      // summary frames received (== k on success)
  /// Piece-frame bytes the coordinator shipped down: the rng-only frame of
  /// a round whose pieces rode the fork, the whole piece otherwise.
  std::uint64_t piece_bytes = 0;
  /// Worker processes forked FOR THIS CALL: k when the call spawned the
  /// host (every single-round call, and round 0 of a run that keeps one
  /// host), 0 for a later round served by a kept host.
  std::uint64_t forks = 0;
  /// Largest peak RSS (ru_maxrss) among the workers this call reaped, in
  /// bytes; 0 in-process and for a round served by a kept host (its run
  /// reports the peak once the host is reaped).
  std::uint64_t worker_peak_rss_bytes = 0;
};

/// What every protocol run returns: the coordinator's solution, the machine
/// summaries (retained for probes and experiments), the communication
/// ledger, per-phase timings, and what crossed a process boundary.
template <typename Solution, typename Summary>
struct ProtocolResult {
  Solution solution;
  std::vector<Summary> summaries;
  CommStats comm;
  ProtocolTiming timing;
  TransportTelemetry transport;
};

/// Machine + combine phases over pre-made pieces (arena shards, or any
/// contiguous edge storage — experiments use this to contrast random vs
/// adversarial partitionings on identical edges). This is the engine core.
///
///   build(piece, ctx, machine_rng) -> Summary   one machine's summary,
///       where piece is the typed view (EdgeSpan / WeightedEdgeSpan) over
///       the machine's shard
///   account(summary)               -> MessageSize   word-exact message cost
///   combine(summaries, rng)        -> Solution   the coordinator phase,
///       once every machine's summary has arrived
///
/// RNG discipline: k machine streams are forked up front, in the caller's
/// process, and combine gets the coordinator's rng — so the outcome is
/// independent of the thread pool and of the transport.
///
/// release_pieces, when set, runs once no machine reads `pieces` any more:
/// on a process transport right after every worker has this round's frame,
/// in process right after the machine phase. run_protocol frees its
/// partition arena there.
template <typename EdgeT, typename Build, typename Account, typename Combine>
auto run_protocol_on_pieces(const std::vector<std::span<const EdgeT>>& pieces,
                            VertexId num_vertices, VertexId left_size, Rng& rng,
                            ThreadPool* pool, const Build& build,
                            const Account& account, const Combine& combine,
                            const StreamingOptions& opts = {},
                            ProtocolWorkspace* workspace = nullptr,
                            const std::function<void()>& release_pieces = {}) {
  using View = typename EdgeViewOf<EdgeT>::type;
  using Summary = std::decay_t<std::invoke_result_t<
      const Build&, View, const PartitionContext&, Rng&>>;
  using Solution = std::decay_t<
      std::invoke_result_t<const Combine&, std::vector<Summary>&, Rng&>>;

  const std::size_t k = pieces.size();
  RCC_CHECK(k >= 1);
  ProtocolResult<Solution, Summary> result;

  WallTimer timer;
  std::vector<Rng> machine_rngs;
  machine_rngs.reserve(k);
  for (std::size_t i = 0; i < k; ++i) machine_rngs.push_back(rng.fork());
  result.summaries.resize(k);
  // Round-persistent scratch: machine i always receives workspace scratch i
  // (pre-grown here — the set must not grow concurrently), so repeated
  // rounds reuse one warmed working set per machine slot.
  if (workspace != nullptr) workspace->ensure_machines(k);
  const auto build_machine = [&](std::size_t i, const View& piece,
                                 Rng& machine_rng) {
    const PartitionContext ctx{
        num_vertices, k, i, left_size,
        workspace != nullptr ? &workspace->machine(i) : nullptr};
    return build(piece, ctx, machine_rng);
  };
  const auto piece_of = [&](std::size_t i) {
    return View(pieces[i].data(), pieces[i].size(), num_vertices);
  };

  if (opts.transport != EngineTransport::kInproc) {
    // Only Edge pieces ship down, and only a summary with a wire layout
    // ships back up.
    if constexpr (std::is_same_v<EdgeT, Edge> && WireSerializable<Summary>) {
      // Cross-process machine phase. Without a kept host this call spawns
      // its own for one round and queues every worker's shutdown right
      // behind its round-0 frame, so workers exit once their summary is
      // written. The thread pool is ignored: workers are the parallelism.
      std::optional<WorkerHost> own_host;
      WorkerHost& host = opts.worker_host != nullptr
                             ? *opts.worker_host
                             : own_host.emplace(k, opts);
      RCC_CHECK(host.machines() == k && host.medium() == opts.transport);
      const std::uint64_t wire_before = host.wire_bytes();
      const std::uint64_t piece_before = host.piece_bytes();
      const std::uint64_t forks_before = host.forks();
      if (!host.spawned()) {
        // The one forked-worker body. Round 0's piece rode the fork (the
        // worker's copy-on-write snapshot of `pieces`), so its frame
        // carries only the rng stream forked for the machine ABOVE, in the
        // coordinator — whose rng position is therefore identical to the
        // in-process paths. Later rounds ship the piece itself, read as a
        // borrowing view into the frame payload.
        host.spawn([&](WorkerChannel& channel) {
          const std::size_t i = channel.machine();
          for (std::uint32_t round = 0;; ++round) {
            const ReadyFrame frame = channel.read_frame();
            if (frame.header.shape == SummaryShape::kShutdown) return;
            const PieceDeliveryView delivered =
                decode_piece_frame_view(frame.header, frame.bytes());
            if (delivered.round != round) {
              transport_fail(opts.transport,
                             "machine %zu expected a round-%u piece, got "
                             "round %u",
                             i, round, delivered.round);
            }
            Rng machine_rng = Rng::from_state(delivered.rng_state);
            const View piece =
                round == 0 ? piece_of(i)
                           : View(delivered.edges, delivered.num_edges,
                                  delivered.num_vertices);
            const Summary summary = build_machine(i, piece, machine_rng);
            // Fixed-width fields staged on the stack, edges and fixed
            // vertices straight off the summary's storage.
            const GatherFrame out(summary, static_cast<std::uint32_t>(i));
            channel.write_frame(out.segments());
          }
        });
      }
      host.begin_round();
      const bool piece_rode_the_fork = host.round() == 0;
      for (std::size_t i = 0; i < k; ++i) {
        // Stack-built prefix + the shard bytes streamed straight from the
        // partition: the downlink never stages a frame-sized vector.
        const std::size_t body_edges =
            piece_rode_the_fork ? 0 : pieces[i].size();
        std::array<std::uint8_t, kPieceFramePrefixBytes> prefix;
        encode_piece_frame_prefix(body_edges, num_vertices,
                                  machine_rngs[i].state(), host.round(),
                                  static_cast<std::uint32_t>(i),
                                  prefix.data());
        host.send_frame(
            i, prefix.data(), prefix.size(),
            reinterpret_cast<const std::uint8_t*>(pieces[i].data()),
            body_edges * sizeof(Edge));
      }
      if (release_pieces) release_pieces();
      if (own_host) host.send_shutdown();
      std::vector<char> arrived(k, 0);
      for (std::size_t received = 0; received < k; ++received) {
        ReadyFrame frame = host.next_ready();
        const std::size_t id = frame.header.machine;
        RCC_CHECK(id < k && arrived[id] == 0);
        arrived[id] = 1;
        result.summaries[id] = decode_frame<Summary>(std::move(frame));
      }
      result.transport.kind = opts.transport;
      result.transport.wire_bytes = host.wire_bytes() - wire_before;
      result.transport.frames = k;
      result.transport.piece_bytes = host.piece_bytes() - piece_before;
      result.transport.forks = host.forks() - forks_before;
      if (own_host) {
        host.reap();
        result.transport.worker_peak_rss_bytes = host.worker_peak_rss_bytes();
      }
    } else {
      RCC_CHECK(!"cross-process engine transports require Edge pieces and "
                 "a wire-serializable summary");
    }
  } else if (pool != nullptr) {
    // Machines write disjoint summary slots, so the schedule cannot leak
    // into the result.
    parallel_for(*pool, k, [&](std::size_t i) {
      result.summaries[i] = build_machine(i, piece_of(i), machine_rngs[i]);
    });
  } else {
    for (std::size_t i = 0; i < k; ++i) {
      result.summaries[i] = build_machine(i, piece_of(i), machine_rngs[i]);
    }
  }
  if (opts.transport == EngineTransport::kInproc && release_pieces) {
    release_pieces();
  }
  result.comm.per_machine.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    result.comm.per_machine[i] = account(result.summaries[i]);
  }
  result.timing.summaries_seconds = timer.seconds();

  timer.reset();
  result.solution = combine(result.summaries, rng);
  result.timing.combine_seconds = timer.seconds();
  return result;
}

/// Where a transport's partition arena lives: the heap when threads read the
/// shards, a shared mapping when forked workers do (util/workspace.hpp).
inline ArenaBacking arena_backing_for(EngineTransport transport) {
  return transport == EngineTransport::kInproc ? ArenaBacking::kHeap
                                               : ArenaBacking::kShared;
}

/// Adapts a sharded partition into engine pieces (zero-copy arena slices;
/// the partition must outlive the call).
template <typename EdgeT>
std::vector<std::span<const EdgeT>> pieces_of(
    const ShardedPartition<EdgeT>& parts) {
  std::vector<std::span<const EdgeT>> pieces;
  pieces.reserve(parts.num_machines());
  for (std::size_t i = 0; i < parts.num_machines(); ++i) {
    pieces.push_back(parts.shard(i));
  }
  return pieces;
}

/// The full pipeline: sharded random partition, then machines + combine.
/// The partition and machine phases both run on `pool` when provided. The
/// partition is freed once no machine reads it, before the combine.
template <typename EdgeT, typename Build, typename Account, typename Combine>
auto run_protocol(std::span<const EdgeT> edges, VertexId num_vertices,
                  std::size_t k, VertexId left_size, Rng& rng, ThreadPool* pool,
                  const Build& build, const Account& account,
                  const Combine& combine, const StreamingOptions& opts = {}) {
  WallTimer timer;
  std::optional<ShardedPartition<EdgeT>> parts(
      std::in_place, edges, num_vertices, k, rng, pool,
      arena_backing_for(opts.transport));
  const double partition_seconds = timer.seconds();

  auto result = run_protocol_on_pieces<EdgeT>(
      pieces_of(*parts), num_vertices, left_size, rng, pool, build, account,
      combine, opts, /*workspace=*/nullptr, [&parts] { parts.reset(); });
  result.timing.partition_seconds = partition_seconds;
  return result;
}

/// Whole-graph conveniences: run the full pipeline straight off an
/// EdgeSource (the common entry-point shape) without each caller spelling
/// out the raw span plumbing. EdgeSource converts implicitly from both an
/// owning EdgeList and an mmap-backed MappedGraph (graph/edge_source.hpp),
/// so the same call works in-memory and out-of-core.
template <typename Build, typename Account, typename Combine>
auto run_protocol(EdgeSource graph, std::size_t k, VertexId left_size,
                  Rng& rng, ThreadPool* pool, const Build& build,
                  const Account& account, const Combine& combine,
                  const StreamingOptions& opts = {}) {
  return run_protocol<Edge>(
      std::span<const Edge>(graph.edges().data(), graph.num_edges()),
      graph.num_vertices(), k, left_size, rng, pool, build, account, combine,
      opts);
}

template <typename Build, typename Account, typename Combine>
auto run_protocol(WeightedEdgeSource graph, std::size_t k,
                  VertexId left_size, Rng& rng, ThreadPool* pool,
                  const Build& build, const Account& account,
                  const Combine& combine, const StreamingOptions& opts = {}) {
  return run_protocol<WeightedEdge>(
      std::span<const WeightedEdge>(graph.edges().data(), graph.num_edges()),
      graph.num_vertices(), k, left_size, rng, pool, build, account, combine,
      opts);
}

/// Registers the machine-phase transport knobs on an Options parser:
///   --engine-transport             inproc | socket (forked workers over
///                                  loopback) | shm (forked workers over
///                                  shared-memory rings)
///   --engine-transport-timeout-ms  socket/shm deadline per wait
///   --engine-shm-ring-bytes        per-direction ring capacity for shm
void add_streaming_flags(Options& options);

/// Reads the knobs registered by add_streaming_flags back; exits(2) on an
/// unknown enum value or out-of-range number (strict Options philosophy).
StreamingOptions streaming_options_from_options(const Options& options);

/// Adapts a vector of owning edge lists into engine pieces (zero-copy views;
/// the lists must outlive the call). All pieces must share one vertex
/// universe — the engine rebuilds each view with the caller's num_vertices,
/// so a divergent piece would silently have its universe overridden.
inline std::vector<std::span<const Edge>> pieces_of(
    const std::vector<EdgeList>& lists) {
  std::vector<std::span<const Edge>> pieces;
  pieces.reserve(lists.size());
  for (const EdgeList& l : lists) {
    RCC_CHECK(l.num_vertices() == lists.front().num_vertices());
    pieces.emplace_back(l.edges().data(), l.num_edges());
  }
  return pieces;
}

}  // namespace rcc
