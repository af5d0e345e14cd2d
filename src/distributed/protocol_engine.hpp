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
// communication stats, and per-phase wall timings. The legacy entry points
// in protocol.hpp / protocols.hpp / weighted_*_protocol.hpp are thin
// wrappers over run_protocol / run_protocol_on_pieces.
//
// Adding a protocol variant means writing three lambdas — see the wrappers
// in protocol.cpp for the pattern; no new driver loop, accounting, or
// timing code.
//
// The coordinator combine runs once, after the machine phase, on every
// transport: machines (threads, forked socket workers, or shm ring workers)
// fill the k-slot summary vector, the engine accounts the summaries in
// machine order, and combine(summaries, rng) folds them. Combiners never
// race a build.
#pragma once

#include <array>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "distributed/message.hpp"
#include "distributed/shm_transport.hpp"
#include "distributed/socket_transport.hpp"
#include "distributed/summary_wire.hpp"
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

/// How machine summaries reach the coordinator.
enum class EngineTransport {
  kInproc,  // shared address space: one thread-pool task per machine
  kSocket,  // k forked worker processes streaming framed summaries over
            // loopback TCP (summary_wire.hpp / socket_transport.hpp)
  kShm,     // k forked worker processes exchanging the same frames through
            // shared-memory rings (shm_transport.hpp); persistent workers
            // when a multi-round executor provides a pool
};

/// How the machine phase reaches the coordinator.
struct StreamingOptions {
  /// Where the machine phase runs. kSocket and kShm require a
  /// WireSerializable summary type and ignore the thread pool — the worker
  /// processes ARE the parallelism.
  EngineTransport transport = EngineTransport::kInproc;
  /// Socket-transport knobs (port, deadline, fault injection); unused for
  /// kInproc.
  SocketTransportOptions socket;
  /// Shm-transport knobs (ring capacity, deadline, fault injection); unused
  /// unless transport == kShm.
  ShmTransportOptions shm;
  /// A live persistent worker pool for transport == kShm, or null. Set by
  /// multi-round executors (run_mpc_rounds) that forked the pool INSIDE
  /// round 0, right after the first partition: the engine ships round 0 an
  /// rng-only control frame (the workers' copy-on-write snapshots already
  /// hold their round-0 shards) and every later round its piece + forked
  /// RNG stream DOWN the pool's rings instead of forking fresh workers. The
  /// workers must be running the executor's round-loop body, which decodes
  /// that protocol. Null means the engine forks ephemeral ring workers for
  /// this one call (single-round drivers). Edge-typed pieces only.
  ShmWorkerPool* shm_pool = nullptr;
};

/// What crossed a process boundary; all zeros for in-process runs.
struct TransportTelemetry {
  EngineTransport kind = EngineTransport::kInproc;
  std::uint64_t wire_bytes = 0;  // framed bytes received (headers + payloads)
  std::uint64_t frames = 0;      // summary frames received (== k on success)
  /// Downlink bytes the coordinator shipped (piece-delivery frames of a
  /// persistent shm pool); 0 for transports that inherit pieces via fork.
  std::uint64_t piece_bytes = 0;
  /// Worker processes forked FOR THIS CALL: k for socket and ephemeral shm
  /// runs, 0 for a round served by a persistent pool (its forks happened at
  /// spawn — the amortization the pool exists to provide).
  std::uint64_t forks = 0;
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
template <typename EdgeT, typename Build, typename Account, typename Combine>
auto run_protocol_on_pieces(const std::vector<std::span<const EdgeT>>& pieces,
                            VertexId num_vertices, VertexId left_size, Rng& rng,
                            ThreadPool* pool, const Build& build,
                            const Account& account, const Combine& combine,
                            const StreamingOptions& opts = {},
                            ProtocolWorkspace* workspace = nullptr) {
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
  const auto machine_work = [&](std::size_t i) {
    const PartitionContext ctx{
        num_vertices, k, i, left_size,
        workspace != nullptr ? &workspace->machine(i) : nullptr};
    const View piece(pieces[i].data(), pieces[i].size(), num_vertices);
    result.summaries[i] = build(piece, ctx, machine_rngs[i]);
  };

  // Cross-process transports share one collect loop: pull k frames off the
  // transport in arrival order and decode each into its machine's slot.
  // (A generic lambda, called only from the WireSerializable branches
  // below; `frame` stays type-dependent on the lambda parameter so the
  // decode call is not checked for non-serializable summaries.)
  const auto collect_frames = [&](auto&& next_frame) {
    std::vector<char> arrived(k, 0);
    for (std::size_t received = 0; received < k; ++received) {
      auto frame = next_frame();
      const std::size_t id = frame.header.machine;
      RCC_CHECK(id < k && arrived[id] == 0);
      arrived[id] = 1;
      result.summaries[id] =
          decode_frame_payload<Summary>(frame.header, frame.payload.data());
    }
  };
  if (opts.transport == EngineTransport::kSocket) {
    // Cross-process machine phase: fork k workers, each builds its summary
    // on its copy-on-write inherited piece (with the rng stream forked for
    // it ABOVE, in the parent — so the coordinator rng's position is
    // identical to the in-process paths), frames it per summary_wire.hpp,
    // and streams it to this process over loopback. The thread pool is
    // ignored: workers are the parallelism.
    if constexpr (WireSerializable<Summary>) {
      const SocketTransportOptions& sock = opts.socket;
      LoopbackListener listener(sock.leader_port);
      const std::uint16_t port = listener.port();
      const auto worker_body = [&](std::size_t i) {
        if (static_cast<long>(i) == sock.fault_kill_machine) {
          worker_exit_silently();
        }
        machine_work(i);  // fills the CHILD's copy of summaries[i]
        const std::vector<std::uint8_t> frame =
            encode_frame(result.summaries[i], static_cast<std::uint32_t>(i));
        const int fd = connect_to_leader(port, sock.timeout_ms);
        if (static_cast<long>(i) == sock.fault_partial_frame_machine) {
          send_partial_frame_and_die(fd, frame.data(), frame.size());
        }
        send_all(fd, frame.data(), frame.size());
      };
      const std::vector<pid_t> workers = spawn_workers(k, worker_body);
      {
        FrameCollector collector(listener, k, sock.timeout_ms);
        collect_frames([&] { return collector.next_ready(); });
        result.transport.kind = EngineTransport::kSocket;
        result.transport.wire_bytes = collector.wire_bytes();
        result.transport.frames = collector.frames_delivered();
        result.transport.forks = k;
      }
      reap_workers(workers);
    } else {
      RCC_CHECK(
          !"engine transport 'socket' requires a wire-serializable summary");
    }
  } else if (opts.transport == EngineTransport::kShm) {
    if constexpr (WireSerializable<Summary>) {
      bool served_by_pool = false;
      if constexpr (std::is_same_v<EdgeT, Edge>) {
        if (opts.shm_pool != nullptr) {
          // Persistent pool (multi-round executors): the workers forked
          // ONCE, inside round 0 right after the first partition, and are
          // idling in their round loop. Round 0's pieces therefore rode the
          // fork itself (copy-on-write, the socket transport's free piece
          // story) and its frames carry only the rng stream forked for each
          // machine ABOVE (so the coordinator rng's position is identical
          // to every other path); later rounds repartition after the fork,
          // so their frames ship the actual piece. Collect the summary
          // frames back off the rings either way.
          served_by_pool = true;
          ShmWorkerPool& worker_pool = *opts.shm_pool;
          RCC_CHECK(worker_pool.machines() == k);
          const std::uint64_t wire_before = worker_pool.wire_bytes();
          const std::uint64_t piece_before = worker_pool.piece_bytes();
          worker_pool.begin_round();
          const bool piece_rode_the_fork = worker_pool.round() == 0;
          for (std::size_t i = 0; i < k; ++i) {
            // Stack-built prefix + the shard bytes streamed straight from
            // the partition: the downlink never stages a frame-sized
            // scratch vector (megabytes per machine per round on dense
            // multi-round runs).
            std::array<std::uint8_t, kPieceFramePrefixBytes> prefix;
            const std::size_t body_edges =
                piece_rode_the_fork ? 0 : pieces[i].size();
            encode_piece_frame_prefix(
                body_edges, num_vertices, machine_rngs[i].state(),
                worker_pool.round(), static_cast<std::uint32_t>(i),
                prefix.data());
            worker_pool.send_frame(
                i, prefix.data(), prefix.size(),
                reinterpret_cast<const std::uint8_t*>(pieces[i].data()),
                body_edges * sizeof(Edge));
          }
          collect_frames([&] { return worker_pool.next_ready(); });
          result.transport.kind = EngineTransport::kShm;
          result.transport.wire_bytes = worker_pool.wire_bytes() - wire_before;
          result.transport.frames = k;
          result.transport.piece_bytes =
              worker_pool.piece_bytes() - piece_before;
          result.transport.forks = 0;  // forked at spawn, not per round
        }
      }
      if (!served_by_pool) {
        // Ephemeral ring workers: fork k processes for this one call, each
        // building on its copy-on-write inherited piece (socket-path
        // discipline) and writing its frame through its uplink ring.
        const ShmTransportOptions& shm = opts.shm;
        ShmWorkerPool worker_pool(k, shm);
        worker_pool.spawn([&](std::size_t i, ShmWorkerEndpoint& endpoint) {
          if (static_cast<long>(i) == shm.fault_kill_machine) {
            worker_exit_silently();
          }
          machine_work(i);  // fills the CHILD's copy of summaries[i]
          const std::vector<std::uint8_t> frame =
              encode_frame(result.summaries[i], static_cast<std::uint32_t>(i));
          if (static_cast<long>(i) == shm.fault_partial_frame_machine) {
            endpoint.write_raw(frame.data(),
                               kFrameHeaderBytes +
                                   (frame.size() - kFrameHeaderBytes) / 2);
            worker_exit_silently();
          }
          endpoint.write_frame(frame.data(), frame.size());
        });
        collect_frames([&] { return worker_pool.next_ready(); });
        result.transport.kind = EngineTransport::kShm;
        result.transport.wire_bytes = worker_pool.wire_bytes();
        result.transport.frames = worker_pool.frames_delivered();
        result.transport.forks = worker_pool.forks();
        worker_pool.reap();
      }
    } else {
      RCC_CHECK(
          !"engine transport 'shm' requires a wire-serializable summary");
    }
  } else if (pool != nullptr) {
    // Machines write disjoint summary slots, so the schedule cannot leak
    // into the result.
    parallel_for(*pool, k, machine_work);
  } else {
    for (std::size_t i = 0; i < k; ++i) machine_work(i);
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
/// The partition and machine phases both run on `pool` when provided.
template <typename EdgeT, typename Build, typename Account, typename Combine>
auto run_protocol(std::span<const EdgeT> edges, VertexId num_vertices,
                  std::size_t k, VertexId left_size, Rng& rng, ThreadPool* pool,
                  const Build& build, const Account& account,
                  const Combine& combine, const StreamingOptions& opts = {}) {
  WallTimer timer;
  const ShardedPartition<EdgeT> parts(edges, num_vertices, k, rng, pool);
  const double partition_seconds = timer.seconds();

  auto result = run_protocol_on_pieces<EdgeT>(pieces_of(parts), num_vertices,
                                              left_size, rng, pool, build,
                                              account, combine, opts);
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
///   --engine-transport-port        coordinator port (0 = ephemeral)
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
