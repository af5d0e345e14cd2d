// Cross-process machine phase over loopback sockets AND shared-memory rings
// (distributed/worker_host.hpp + the cross-process branch of
// distributed/protocol_engine.hpp):
//
//   (a) both multi-process media must be seed-for-seed IDENTICAL to the
//       in-process run, sequential and pooled — exact solutions, word-exact
//       communication ledgers, per-machine summary sizes, round counts, and
//       the caller's RNG stream position — across a generator x seed x k
//       grid for every protocol whose summary has a wire layout: the
//       single-round coreset matching and VC drivers and every multi-round
//       combiner (coreset matching, coreset VC, filtering); a build whose
//       summary has none dies at the engine's guard before forking,
//   (b) transport telemetry reports what actually crossed the process
//       boundary: k frames, framed bytes >= k headers (byte-identical
//       between socket and shm — same summary_wire frames), kInproc
//       reporting zeros; fork accounting separates a host kept for a whole
//       round-invariant run (k forks per RUN on either medium, piece frames
//       down the channels) from the per-round hosts of single-round calls
//       and of builds that read coordinator-evolving state; every forking
//       call or run reports its own workers' peak RSS, a worker does not
//       inherit the coordinator's freed heap, and a worker's RSS holds its
//       own shard of the partition arena, not every machine's,
//   (c) backpressure: frames far larger than the ring capacity flow through
//       chunked writes without deadlock or corruption,
//   (d) fault injection, on both media: a killed worker fails the run
//       NAMING the machine and the round (no hang) — before its frame,
//       mid-frame, and mid-run after serving a full round; silent-but-live
//       workers time out listing every missing machine id; a frame naming a
//       foreign machine dies naming both ids; a worker that ignores the
//       shutdown handshake is killed and named. All death tests — a lost
//       worker is a failed run, not a recoverable condition.
#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "coreset/matching_coresets.hpp"
#include "coreset/vc_coreset.hpp"
#include "distributed/protocol.hpp"
#include "distributed/protocols.hpp"
#include "distributed/summary_wire.hpp"
#include "distributed/worker_host.hpp"
#include "graph/generators.hpp"
#include "mpc/coreset_mpc.hpp"
#include "mpc/filtering_mpc.hpp"
#include "mpc/mpc_engine.hpp"
#include "util/thread_pool.hpp"

namespace rcc {
namespace {

std::vector<Edge> sorted_edges(const Matching& m) {
  EdgeList el = m.to_edge_list();
  el.sort();
  return el.edges();
}

StreamingOptions transport_options(EngineTransport medium, int timeout_ms,
                                   std::size_t ring_bytes = std::size_t{1}
                                                            << 20) {
  StreamingOptions opts;
  opts.transport = medium;
  opts.timeout_ms = timeout_ms;
  opts.ring_bytes = ring_bytes;
  return opts;
}

StreamingOptions socket_options() {
  return transport_options(EngineTransport::kSocket, 30000);
}

StreamingOptions shm_options(int timeout_ms = 30000,
                             std::size_t ring_bytes = std::size_t{1} << 20) {
  return transport_options(EngineTransport::kShm, timeout_ms, ring_bytes);
}

/// The socket run received exactly one frame per machine and counted the
/// bytes behind them. A single-round call spawns its own host: k forks, and
/// one rng-only piece frame per machine down the channels.
template <typename Result>
void expect_socket_telemetry(const Result& result, std::size_t k) {
  EXPECT_EQ(result.transport.kind, EngineTransport::kSocket);
  EXPECT_EQ(result.transport.frames, k);
  EXPECT_GE(result.transport.wire_bytes, k * kFrameHeaderBytes);
  EXPECT_EQ(result.transport.forks, k);
  EXPECT_EQ(result.transport.piece_bytes, k * kPieceFramePrefixBytes);
}

/// The shm run delivered one frame per machine through the rings, and its
/// framed bytes both ways are IDENTICAL to the socket run's — both media
/// carry the same summary_wire frames, only the pipe differs.
template <typename Result>
void expect_shm_telemetry(const Result& shm, const Result& socket,
                          std::size_t k) {
  EXPECT_EQ(shm.transport.kind, EngineTransport::kShm);
  EXPECT_EQ(shm.transport.frames, k);
  EXPECT_EQ(shm.transport.wire_bytes, socket.transport.wire_bytes);
  EXPECT_EQ(shm.transport.piece_bytes, socket.transport.piece_bytes);
  EXPECT_EQ(shm.transport.forks, k);
}

TEST(DistributedTransport, MatchingProtocolMatchesInprocSeedForSeed) {
  const MaximumMatchingCoreset coreset;
  ThreadPool pool(4);
  for (std::uint64_t seed : {1u, 2u}) {
    Rng gen(seed);
    const std::vector<EdgeList> instances = {
        gnp(300, 5.0 / 300, gen), random_bipartite(80, 100, 0.06, gen)};
    for (const EdgeList& el : instances) {
      for (const std::size_t k : {4u, 7u}) {
        Rng barrier_rng(seed);
        const MatchingProtocolResult barrier = run_matching_protocol(
            el, k, coreset, ComposeSolver::kMaximum, 0, barrier_rng);
        Rng inproc_rng(seed);
        const MatchingProtocolResult inproc = run_matching_protocol(
            el, k, coreset, ComposeSolver::kMaximum, 0, inproc_rng, &pool);
        Rng socket_rng(seed);
        const MatchingProtocolResult socket = run_matching_protocol(
            el, k, coreset, ComposeSolver::kMaximum, 0, socket_rng,
            /*pool=*/nullptr, socket_options());
        Rng shm_rng(seed);
        const MatchingProtocolResult shm = run_matching_protocol(
            el, k, coreset, ComposeSolver::kMaximum, 0, shm_rng,
            /*pool=*/nullptr, shm_options());

        EXPECT_EQ(sorted_edges(barrier.solution), sorted_edges(socket.solution))
            << "seed=" << seed << " k=" << k;
        EXPECT_EQ(sorted_edges(inproc.solution), sorted_edges(socket.solution));
        EXPECT_EQ(sorted_edges(barrier.solution), sorted_edges(shm.solution));
        EXPECT_EQ(barrier.comm.total_words(), socket.comm.total_words());
        EXPECT_EQ(barrier.comm.total_words(), shm.comm.total_words());
        ASSERT_EQ(barrier.summaries.size(), socket.summaries.size());
        ASSERT_EQ(barrier.summaries.size(), shm.summaries.size());
        for (std::size_t i = 0; i < k; ++i) {
          EXPECT_EQ(barrier.summaries[i].edges(), socket.summaries[i].edges());
          EXPECT_EQ(barrier.summaries[i].edges(), shm.summaries[i].edges());
        }
        // All four paths leave the caller's RNG at one stream position.
        const std::uint64_t expected = barrier_rng.next_u64();
        EXPECT_EQ(expected, inproc_rng.next_u64());
        EXPECT_EQ(expected, socket_rng.next_u64());
        EXPECT_EQ(expected, shm_rng.next_u64());

        expect_socket_telemetry(socket, k);
        expect_shm_telemetry(shm, socket, k);
        EXPECT_EQ(inproc.transport.kind, EngineTransport::kInproc);
        EXPECT_EQ(inproc.transport.wire_bytes, 0u);
        EXPECT_EQ(inproc.transport.frames, 0u);
      }
    }
  }
}

TEST(DistributedTransport, VcProtocolMatchesInprocSeedForSeed) {
  const PeelingVcCoreset coreset;
  for (std::uint64_t seed : {3u, 4u}) {
    Rng gen(seed);
    const EdgeList el = gnp(250, 6.0 / 250, gen);
    for (const std::size_t k : {4u, 6u}) {
      Rng barrier_rng(seed);
      const VcProtocolResult barrier =
          run_vc_protocol(el, k, coreset, barrier_rng);
      Rng socket_rng(seed);
      const VcProtocolResult socket = run_vc_protocol(
          el, k, coreset, socket_rng, /*pool=*/nullptr, socket_options());
      Rng shm_rng(seed);
      const VcProtocolResult shm = run_vc_protocol(
          el, k, coreset, shm_rng, /*pool=*/nullptr, shm_options());

      EXPECT_EQ(barrier.solution.vertices(), socket.solution.vertices())
          << "seed=" << seed << " k=" << k;
      EXPECT_EQ(barrier.solution.vertices(), shm.solution.vertices());
      EXPECT_EQ(barrier.comm.total_words(), socket.comm.total_words());
      EXPECT_EQ(barrier.comm.total_words(), shm.comm.total_words());
      ASSERT_EQ(barrier.summaries.size(), socket.summaries.size());
      ASSERT_EQ(barrier.summaries.size(), shm.summaries.size());
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_EQ(barrier.summaries[i].residual_edges.edges(),
                  socket.summaries[i].residual_edges.edges());
        EXPECT_EQ(barrier.summaries[i].fixed_vertices,
                  socket.summaries[i].fixed_vertices);
        EXPECT_EQ(barrier.summaries[i].residual_edges.edges(),
                  shm.summaries[i].residual_edges.edges());
        EXPECT_EQ(barrier.summaries[i].fixed_vertices,
                  shm.summaries[i].fixed_vertices);
      }
      const std::uint64_t expected = barrier_rng.next_u64();
      EXPECT_EQ(expected, socket_rng.next_u64());
      EXPECT_EQ(expected, shm_rng.next_u64());
      expect_socket_telemetry(socket, k);
      expect_shm_telemetry(shm, socket, k);
    }
  }
}

// ---------------------------------------------------------------------------
// Multi-round combiners through run_mpc_rounds: requesting a cross-process
// transport must replay the in-process barrier word for word, round for
// round. Round-invariant builds (coreset matching/VC) keep ONE worker host
// for the whole run on either medium — worker_forks == k, pieces shipped
// down the channels — and builds that read coordinator-evolving state
// (filtering) spawn a fresh host every round.

MpcEngineConfig base_config(const EdgeList& graph, std::size_t max_rounds) {
  MpcEngineConfig config;
  config.mpc = MpcConfig::paper_default(graph.num_vertices());
  config.max_rounds = max_rounds;
  config.input_already_random = true;
  return config;
}

MpcEngineConfig socket_config(const EdgeList& graph, std::size_t max_rounds) {
  MpcEngineConfig config = base_config(graph, max_rounds);
  config.streaming = socket_options();
  return config;
}

MpcEngineConfig shm_config(const EdgeList& graph, std::size_t max_rounds,
                           std::size_t ring_bytes = std::size_t{1} << 20) {
  MpcEngineConfig config = base_config(graph, max_rounds);
  config.streaming = shm_options(30000, ring_bytes);
  return config;
}

void expect_same_rounds(const MpcExecutionStats& barrier,
                        const MpcExecutionStats& socket) {
  EXPECT_EQ(barrier.mpc_rounds, socket.mpc_rounds);
  EXPECT_EQ(barrier.engine_rounds, socket.engine_rounds);
  EXPECT_EQ(barrier.total_comm_words, socket.total_comm_words);
  ASSERT_EQ(barrier.per_round.size(), socket.per_round.size());
  for (std::size_t i = 0; i < barrier.per_round.size(); ++i) {
    EXPECT_EQ(barrier.per_round[i].comm_words, socket.per_round[i].comm_words)
        << "round " << i;
    EXPECT_EQ(barrier.per_round[i].active_edges,
              socket.per_round[i].active_edges)
        << "round " << i;
    EXPECT_EQ(barrier.per_round[i].surviving_edges,
              socket.per_round[i].surviving_edges)
        << "round " << i;
  }
}

/// Fork accounting of a run that kept one host: k workers forked ONCE no
/// matter how many engine rounds ran, on both media, and both pushed the
/// same summary bytes up and the same piece bytes down.
void expect_kept_host(const MpcExecutionStats& shm,
                      const MpcExecutionStats& socket, std::size_t k) {
  EXPECT_EQ(shm.worker_forks, k);
  EXPECT_EQ(socket.worker_forks, k);
  EXPECT_EQ(shm.transport_wire_bytes, socket.transport_wire_bytes);
  EXPECT_EQ(shm.transport_piece_bytes, socket.transport_piece_bytes);
  EXPECT_GT(shm.transport_piece_bytes, 0u);
}

/// Fork accounting of a non-round-invariant build: a fresh host every
/// round on both media, whose pieces all ride the fork — each round ships
/// only an rng-only piece frame per machine.
void expect_host_per_round(const MpcExecutionStats& shm,
                           const MpcExecutionStats& socket, std::size_t k) {
  for (const MpcExecutionStats* stats : {&shm, &socket}) {
    EXPECT_EQ(stats->worker_forks, k * stats->engine_rounds);
    EXPECT_EQ(stats->transport_piece_bytes,
              k * stats->engine_rounds * kPieceFramePrefixBytes);
  }
  EXPECT_EQ(shm.transport_wire_bytes, socket.transport_wire_bytes);
}

/// A deterministic fixed-round-count harness: a round-invariant build (the
/// piece itself is its summary) plus a fold that recirculates every edge, so
/// with early_stop off the run executes EXACTLY max_rounds engine rounds on
/// every transport — the coreset drivers typically converge in one round,
/// which proves correctness but not amortization. This is the probe for the
/// kept host's fork claim: k forks per RUN, not k per round.
MpcExecutionStats run_recirculating_rounds(const EdgeList& el,
                                           MpcEngineConfig config, Rng& rng) {
  config.early_stop = false;
  config.round_invariant_build = true;
  const auto build = [](EdgeSpan piece, const PartitionContext&, Rng&) {
    return piece.to_edge_list();
  };
  const auto account = [](const EdgeList& s) {
    return MessageSize{s.num_edges(), 0};
  };
  struct RecirculatingFold {
    void absorb(EdgeList&, std::size_t, MpcRoundContext&) {}
    EdgeList finish(std::vector<EdgeList>&, MpcRoundContext& ctx, Rng&) {
      ctx.survivors_out().assign(ctx.active_edges());
      return std::move(ctx.survivors_out());
    }
  } fold;
  return run_mpc_rounds(el, config, 0, rng, nullptr, build, account, fold);
}

TEST(DistributedTransport, CoresetMatchingRoundsMatchOverSocketAndShm) {
  for (std::uint64_t seed : {11u, 12u}) {
    Rng gen(seed);
    const EdgeList el = gnp(400, 5.0 / 400, gen);
    const std::size_t k = base_config(el, 3).mpc.num_machines;
    Rng barrier_rng(seed);
    const CoresetMpcMatchingResult barrier = coreset_mpc_matching_rounds(
        el, base_config(el, 3), 0, barrier_rng);
    Rng socket_rng(seed);
    const CoresetMpcMatchingResult socket = coreset_mpc_matching_rounds(
        el, socket_config(el, 3), 0, socket_rng);
    Rng shm_rng(seed);
    const CoresetMpcMatchingResult shm = coreset_mpc_matching_rounds(
        el, shm_config(el, 3), 0, shm_rng);
    EXPECT_EQ(sorted_edges(barrier.matching), sorted_edges(socket.matching));
    EXPECT_EQ(sorted_edges(barrier.matching), sorted_edges(shm.matching));
    EXPECT_EQ(barrier.rounds, socket.rounds);
    EXPECT_EQ(barrier.rounds, shm.rounds);
    expect_same_rounds(barrier.stats, socket.stats);
    expect_same_rounds(barrier.stats, shm.stats);
    const std::uint64_t expected = barrier_rng.next_u64();
    EXPECT_EQ(expected, socket_rng.next_u64());
    EXPECT_EQ(expected, shm_rng.next_u64());
    expect_kept_host(shm.stats, socket.stats, k);
  }
}

TEST(DistributedTransport, PersistentPoolAmortizesForksOverFiveRounds) {
  // The coreset drivers converge in one round on these instances, so the
  // amortization claim rides the recirculating harness: five engine rounds,
  // every one served by the k workers forked in round 0, on both media.
  constexpr std::size_t kRounds = 5;
  Rng gen(36);
  const EdgeList el = gnp(300, 6.0 / 300, gen);
  const std::size_t k = base_config(el, kRounds).mpc.num_machines;
  Rng barrier_rng(36);
  const MpcExecutionStats barrier =
      run_recirculating_rounds(el, base_config(el, kRounds), barrier_rng);
  Rng socket_rng(36);
  const MpcExecutionStats socket =
      run_recirculating_rounds(el, socket_config(el, kRounds), socket_rng);
  Rng shm_rng(36);
  const MpcExecutionStats shm =
      run_recirculating_rounds(el, shm_config(el, kRounds), shm_rng);
  ASSERT_EQ(barrier.engine_rounds, kRounds);
  expect_same_rounds(barrier, socket);
  expect_same_rounds(barrier, shm);
  const std::uint64_t expected = barrier_rng.next_u64();
  EXPECT_EQ(expected, socket_rng.next_u64());
  EXPECT_EQ(expected, shm_rng.next_u64());
  expect_kept_host(shm, socket, k);  // k forks per run, not per round
}

TEST(DistributedTransport, WorkerPeakRssIsReportedForForkedWorkersOnly) {
  Rng gen(21);
  const EdgeList el = gnp(300, 6.0 / 300, gen);
  const PeelingVcCoreset coreset;
  Rng inproc_rng(21);
  EXPECT_EQ(run_vc_protocol(el, 4, coreset, inproc_rng)
                .transport.worker_peak_rss_bytes,
            0u);
  Rng inproc_rounds_rng(21);
  EXPECT_EQ(run_recirculating_rounds(el, base_config(el, 2), inproc_rounds_rng)
                .worker_peak_rss_bytes,
            0u);
  for (const StreamingOptions& medium : {socket_options(), shm_options()}) {
    // A single-round call reaps its own host; a kept host reports once the
    // run reaps it.
    Rng rng(21);
    EXPECT_GT(run_vc_protocol(el, 4, coreset, rng, nullptr, medium)
                  .transport.worker_peak_rss_bytes,
              0u);
    MpcEngineConfig config = base_config(el, 2);
    config.streaming = medium;
    Rng rounds_rng(21);
    EXPECT_GT(run_recirculating_rounds(el, config, rounds_rng)
                  .worker_peak_rss_bytes,
              0u);
  }
}

TEST(DistributedTransport, WorkersDoNotInheritFreedHeap) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer owns the allocator";
#endif
  // A fresh process (threadsafe death-test style re-execs the binary), so
  // its heap holds only what this test leaves and its child counters start
  // at zero: every child it reaps is one of this call's workers.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        Rng gen(22);
        const EdgeList el = gnp(400, 6.0 / 400, gen);
        const PeelingVcCoreset coreset;
        // 64 MiB of small chunks, touched and then freed below a live guard
        // allocation: free() alone cannot hand these pages back, because
        // they do not sit at the top of the heap. The guard is the last
        // chunk carved, so it lies above the others whatever free chunks
        // the heap held before.
        constexpr std::size_t kChunk = 1024;
        constexpr std::size_t kChunks = std::size_t{64} << 10;
        std::vector<void*> chunks(kChunks + 1);
        for (void*& chunk : chunks) {
          chunk = std::malloc(kChunk);
          std::memset(chunk, 0x5a, kChunk);
        }
        void* guard = chunks.back();
        chunks.pop_back();
        for (void* chunk : chunks) std::free(chunk);

        Rng rng(22);
        const VcProtocolResult r =
            run_vc_protocol(el, 4, coreset, rng, nullptr, socket_options());
        struct rusage children {};
        ::getrusage(RUSAGE_CHILDREN, &children);
        const std::uint64_t peak = r.transport.worker_peak_rss_bytes;
        const auto kernel_peak =
            static_cast<std::uint64_t>(children.ru_maxrss) * 1024;
        std::fprintf(stderr, "worker peak %llu B (kernel: %llu B)\n",
                     static_cast<unsigned long long>(peak),
                     static_cast<unsigned long long>(kernel_peak));
        std::free(guard);
        constexpr std::uint64_t kLimit = std::uint64_t{32} << 20;
        std::_Exit(peak > 0 && peak < kLimit && kernel_peak < kLimit ? 0
                                                                     : 1);
      },
      ::testing::ExitedWithCode(0), "worker peak");
}

/// Solves a 64 MiB arena over k = 4 machines on each process medium, once
/// through run_protocol and once through the round executor's workspace
/// arena, with a build that reads its whole piece; 0 when every worker's
/// peak RSS holds its own shard and stays below the shard plus 16 MiB. The
/// input sits in a shared mapping of its own, so no worker inherits its
/// pages either: a worker's RSS is its shard plus the process's small
/// working set (for the executor, plus its workspace's one-byte-per-edge
/// destination memo, 8 MiB here).
int check_workers_map_only_their_shard() {
  constexpr std::size_t kEdges = std::size_t{8} << 20;
  constexpr std::size_t kArenaBytes = kEdges * sizeof(Edge);
  constexpr std::size_t k = 4;
  constexpr VertexId n = 1 << 20;
  void* mapped = ::mmap(nullptr, kArenaBytes, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mapped == MAP_FAILED) return 2;
  Edge* input = static_cast<Edge*>(mapped);
  for (std::size_t i = 0; i < kEdges; ++i) {
    const auto u = static_cast<VertexId>(i % (n - 1));
    input[i] = Edge{u, u + 1};
  }
  const auto build = [](EdgeSpan piece, const PartitionContext&, Rng&) {
    std::uint64_t sum = 0;
    for (const Edge& e : piece) sum += e.u ^ e.v;
    EdgeList out(piece.num_vertices());
    out.add(0, 1 + static_cast<VertexId>(sum % 7));
    return out;
  };
  const auto account = [](const EdgeList& s) {
    return MessageSize{s.num_edges(), 0};
  };
  const auto combine = [](std::vector<EdgeList>& summaries, Rng&) {
    return summaries.size();
  };
  struct OneRoundFold {
    void absorb(EdgeList&, std::size_t, MpcRoundContext&) {}
    EdgeList finish(std::vector<EdgeList>&, MpcRoundContext& ctx, Rng&) {
      return std::move(ctx.survivors_out());  // empty: the run stops
    }
  } fold;
  constexpr std::uint64_t kLimit =
      kArenaBytes / k + (std::uint64_t{16} << 20);
  bool ok = true;
  const auto check = [&](const char* path, std::uint64_t peak) {
    std::fprintf(stderr, "%s: worker peak %llu B (limit %llu B)\n", path,
                 static_cast<unsigned long long>(peak),
                 static_cast<unsigned long long>(kLimit));
    ok &= peak > kArenaBytes / k && peak < kLimit;
  };
  for (const StreamingOptions& medium : {socket_options(), shm_options()}) {
    Rng rng(23);
    const auto r = run_protocol<Edge>(std::span<const Edge>(input, kEdges), n,
                                      k, 0, rng, nullptr, build, account,
                                      combine, medium);
    ok &= r.solution == k;
    check("run_protocol", r.transport.worker_peak_rss_bytes);
    MpcEngineConfig config;
    config.mpc.num_machines = k;
    config.mpc.memory_words = std::uint64_t{1} << 60;
    config.streaming = medium;
    const MpcExecutionStats stats = run_mpc_rounds(
        EdgeSource(EdgeSpan(input, kEdges, n), EdgeOrigin::kMapped), config,
        0, rng, nullptr, build, account, fold);
    ok &= stats.engine_rounds == 1;
    check("run_mpc_rounds", stats.worker_peak_rss_bytes);
  }
  ::munmap(mapped, kArenaBytes);
  return ok ? 0 : 1;
}

TEST(DistributedTransport, WorkersMapOnlyTheirOwnShard) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer owns the allocator";
#endif
  // A fresh process, as in WorkersDoNotInheritFreedHeap: every child it
  // reaps is one of this test's workers.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(std::_Exit(check_workers_map_only_their_shard()),
              ::testing::ExitedWithCode(0), "worker peak");
}

TEST(DistributedTransport, CoresetMatchingRoundsSurviveTinyUplinkRings) {
  // 512-byte rings against multi-KB summary frames: the coreset run's
  // uplink chunks dozens of handoffs per frame and must still replay the
  // barrier exactly. (Its round-0 piece rides the pool fork, so this leg
  // exercises the uplink; the recirculating test below covers the
  // downlink.)
  Rng gen(11);
  const EdgeList el = gnp(400, 5.0 / 400, gen);
  Rng barrier_rng(11);
  const CoresetMpcMatchingResult barrier =
      coreset_mpc_matching_rounds(el, base_config(el, 3), 0, barrier_rng);
  Rng shm_rng(11);
  const CoresetMpcMatchingResult shm = coreset_mpc_matching_rounds(
      el, shm_config(el, 3, /*ring_bytes=*/512), 0, shm_rng);
  EXPECT_EQ(sorted_edges(barrier.matching), sorted_edges(shm.matching));
  expect_same_rounds(barrier.stats, shm.stats);
  EXPECT_EQ(barrier_rng.next_u64(), shm_rng.next_u64());
}

TEST(DistributedTransport, RecirculatingRoundsSurviveTinyDownlinkRings) {
  // Round 0's piece rides the pool fork copy-on-write, so downlink piece
  // chunking is only exercised by rounds >= 1. The recirculating harness
  // pins four engine rounds against 512-byte rings: rounds 1-3 each ship
  // every machine's multi-KB piece through dozens of chunked ring handoffs
  // (prefix and body written back to back), and every summary chunks back
  // up — all of it must replay the barrier exactly.
  constexpr std::size_t kRounds = 4;
  Rng gen(11);
  const EdgeList el = gnp(400, 5.0 / 400, gen);
  Rng barrier_rng(11);
  const MpcExecutionStats barrier =
      run_recirculating_rounds(el, base_config(el, kRounds), barrier_rng);
  Rng shm_rng(11);
  const MpcExecutionStats shm = run_recirculating_rounds(
      el, shm_config(el, kRounds, /*ring_bytes=*/512), shm_rng);
  ASSERT_EQ(barrier.engine_rounds, kRounds);
  expect_same_rounds(barrier, shm);
  EXPECT_EQ(barrier_rng.next_u64(), shm_rng.next_u64());
  // Rounds 1-3 shipped real pieces: well beyond the four 72-byte control
  // frames a fork-served run would count.
  EXPECT_GT(shm.transport_piece_bytes,
            kRounds * base_config(el, kRounds).mpc.num_machines * 72u);
}

TEST(DistributedTransport, CoresetVcRoundsMatchOverSocketAndShm) {
  for (std::uint64_t seed : {13u, 14u}) {
    Rng gen(seed);
    const EdgeList el = gnp(350, 6.0 / 350, gen);
    const std::size_t k = base_config(el, 3).mpc.num_machines;
    Rng barrier_rng(seed);
    const CoresetMpcVcResult barrier =
        coreset_mpc_vertex_cover_rounds(el, base_config(el, 3), barrier_rng);
    Rng socket_rng(seed);
    const CoresetMpcVcResult socket =
        coreset_mpc_vertex_cover_rounds(el, socket_config(el, 3), socket_rng);
    Rng shm_rng(seed);
    const CoresetMpcVcResult shm =
        coreset_mpc_vertex_cover_rounds(el, shm_config(el, 3), shm_rng);
    EXPECT_EQ(barrier.cover.vertices(), socket.cover.vertices());
    EXPECT_EQ(barrier.cover.vertices(), shm.cover.vertices());
    EXPECT_EQ(barrier.rounds, socket.rounds);
    EXPECT_EQ(barrier.rounds, shm.rounds);
    expect_same_rounds(barrier.stats, socket.stats);
    expect_same_rounds(barrier.stats, shm.stats);
    const std::uint64_t expected = barrier_rng.next_u64();
    EXPECT_EQ(expected, socket_rng.next_u64());
    EXPECT_EQ(expected, shm_rng.next_u64());
    expect_kept_host(shm.stats, socket.stats, k);
  }
}

TEST(DistributedTransport, FilteringRoundsMatchOverSocketAndShm) {
  for (std::uint64_t seed : {15u, 16u}) {
    Rng gen(seed);
    const EdgeList el = gnp(300, 0.06, gen);
    const std::size_t k = base_config(el, 12).mpc.num_machines;
    Rng barrier_rng(seed);
    const FilteringMpcResult barrier =
        filtering_mpc_rounds(el, base_config(el, 12), barrier_rng);
    Rng socket_rng(seed);
    const FilteringMpcResult socket =
        filtering_mpc_rounds(el, socket_config(el, 12), socket_rng);
    Rng shm_rng(seed);
    const FilteringMpcResult shm =
        filtering_mpc_rounds(el, shm_config(el, 12), shm_rng);
    EXPECT_EQ(sorted_edges(barrier.maximal_matching),
              sorted_edges(socket.maximal_matching));
    EXPECT_EQ(sorted_edges(barrier.maximal_matching),
              sorted_edges(shm.maximal_matching));
    EXPECT_EQ(barrier.cover.vertices(), socket.cover.vertices());
    EXPECT_EQ(barrier.cover.vertices(), shm.cover.vertices());
    EXPECT_EQ(barrier.filter_iterations, socket.filter_iterations);
    EXPECT_EQ(barrier.filter_iterations, shm.filter_iterations);
    expect_same_rounds(barrier.stats, socket.stats);
    expect_same_rounds(barrier.stats, shm.stats);
    const std::uint64_t expected = barrier_rng.next_u64();
    EXPECT_EQ(expected, socket_rng.next_u64());
    EXPECT_EQ(expected, shm_rng.next_u64());
    // The filtering build reads the coordinator's evolving sample rate, so
    // every round forks fresh workers — no kept host.
    expect_host_per_round(shm.stats, socket.stats, k);
  }
}

TEST(DistributedTransport, ShmBackpressureTinyRingStillCompletes) {
  // 256-byte rings versus frames tens of KB wide: every frame crosses in
  // hundreds of chunked ring passes. The run must neither deadlock nor
  // corrupt — the result stays byte-identical to the barrier.
  Rng gen(33);
  const EdgeList el = gnp(300, 6.0 / 300, gen);
  const PeelingVcCoreset coreset;
  Rng barrier_rng(33);
  const VcProtocolResult barrier = run_vc_protocol(el, 6, coreset, barrier_rng);
  Rng shm_rng(33);
  const VcProtocolResult shm = run_vc_protocol(
      el, 6, coreset, shm_rng, /*pool=*/nullptr,
      shm_options(/*timeout_ms=*/30000, /*ring_bytes=*/256));
  EXPECT_EQ(barrier.solution.vertices(), shm.solution.vertices());
  EXPECT_EQ(barrier.comm.total_words(), shm.comm.total_words());
  EXPECT_EQ(barrier_rng.next_u64(), shm_rng.next_u64());
}

// ---------------------------------------------------------------------------
// Fault injection, once per medium. A run missing a worker must fail FAST
// (within the configured deadline) with a diagnostic naming the machine and
// the round — never hang. threadsafe death tests: the statement re-execs,
// so the fork-heavy transport code runs in a clean child.

class TransportDeathTest : public ::testing::TestWithParam<EngineTransport> {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
  StreamingOptions options(int timeout_ms) const {
    return transport_options(GetParam(), timeout_ms);
  }
  MpcEngineConfig config(const EdgeList& graph, std::size_t max_rounds,
                         int timeout_ms) const {
    MpcEngineConfig config = base_config(graph, max_rounds);
    config.streaming = options(timeout_ms);
    return config;
  }
  /// The death regex: the medium's funnel prefix, then `message`.
  std::string dies_with(const std::string& message) const {
    return std::string(GetParam() == EngineTransport::kShm ? "shm"
                                                           : "socket") +
           " transport: " + message;
  }
};

/// A worker body that stays alive without writing, and exits once the
/// (aborted) coordinator is gone so a death-test child leaks no processes.
/// `coordinator` is read before the fork: a child that read getppid()
/// itself could see the coordinator already gone and wait forever.
void idle_until_orphaned(pid_t coordinator) {
  while (::getppid() == coordinator) ::usleep(20 * 1000);
  ::_exit(0);
}

TEST_P(TransportDeathTest, KilledWorkerDiesNamingMachine) {
  Rng gen(34);
  const EdgeList el = gnp(120, 0.05, gen);
  const PeelingVcCoreset coreset;
  StreamingOptions opts = options(/*timeout_ms=*/5000);
  opts.faults.kill_machine = 2;
  Rng rng(34);
  EXPECT_DEATH(
      (void)run_vc_protocol(el, 4, coreset, rng, nullptr, opts),
      dies_with("machine 2 worker died before sending its round-0 frame"));
}

TEST_P(TransportDeathTest, PartialFrameDiesNamingMachine) {
  Rng gen(35);
  const EdgeList el = gnp(120, 0.05, gen);
  const PeelingVcCoreset coreset;
  StreamingOptions opts = options(/*timeout_ms=*/5000);
  opts.faults.partial_frame_machine = 1;
  Rng rng(35);
  EXPECT_DEATH((void)run_vc_protocol(el, 4, coreset, rng, nullptr, opts),
               dies_with("machine 1 worker died mid-frame in round 0"));
}

TEST_P(TransportDeathTest, PersistentWorkerKilledMidRunNamesRound) {
  // The host must have served round 0 completely before the injected
  // death: a failure naming round 1 proves both the persistence (same
  // worker, next round) and the diagnosis.
  Rng gen(11);
  const EdgeList el = gnp(300, 6.0 / 300, gen);
  MpcEngineConfig cfg = config(el, 3, /*timeout_ms=*/5000);
  cfg.streaming.faults.kill_machine = 1;
  cfg.streaming.faults.kill_round = 1;
  Rng rng(11);
  EXPECT_DEATH(
      (void)run_recirculating_rounds(el, cfg, rng),
      dies_with("machine 1 worker died before sending its round-1 frame"));
}

TEST_P(TransportDeathTest, IgnoredShutdownIsKilledAndNamed) {
  Rng gen(12);
  const EdgeList el = gnp(300, 6.0 / 300, gen);
  MpcEngineConfig cfg = config(el, 2, /*timeout_ms=*/1500);
  cfg.streaming.faults.ignore_shutdown_machine = 0;
  Rng rng(12);
  EXPECT_DEATH((void)run_recirculating_rounds(el, cfg, rng),
               dies_with("machine 0 worker ignored the shutdown handshake "
                         "for 1500 ms; killed"));
}

TEST_P(TransportDeathTest, SilentWorkersTimeOutListingMachines) {
  // Live-but-silent workers (no frame, no exit) are the one condition the
  // dead-worker sweep cannot classify: the round deadline fires and lists
  // every machine still owing its frame.
  EXPECT_DEATH(
      {
        WorkerHost host(3, options(/*timeout_ms=*/1500));
        const pid_t coordinator = ::getpid();
        host.spawn([&](WorkerChannel&) { idle_until_orphaned(coordinator); });
        host.begin_round();
        (void)host.next_ready();
      },
      dies_with("timed out after 1500 ms waiting for round-0 machine "
                "frames; missing machine ids: \\[0, 1, 2\\]"));
}

TEST_P(TransportDeathTest, FrameNamingForeignMachineDiesNamingBoth) {
  // Machine 1 writes a well-formed frame that claims machine 0. Machine ids
  // are known by channel, so the header alone convicts it — the genuinely
  // silent machine 0 must not have its slot filled by an impostor.
  EXPECT_DEATH(
      {
        WorkerHost host(2, options(/*timeout_ms=*/5000));
        const pid_t coordinator = ::getpid();
        host.spawn([&](WorkerChannel& channel) {
          if (channel.machine() == 1) {
            EdgeList el(4);
            el.add(0, 1);
            const std::vector<std::uint8_t> frame =
                encode_frame(el, /*machine=*/0);
            channel.write_frame(frame.data(), frame.size());
          }
          idle_until_orphaned(coordinator);
        });
        host.begin_round();
        (void)host.next_ready();
      },
      dies_with("frame on machine 1's channel names machine 0"));
}

TEST_P(TransportDeathTest, SummaryWithoutWireLayoutDiesBeforeForking) {
  // A count has no wire layout, so the engine's guard must stop the run
  // before any worker exists, whether the run would keep one host or fork
  // per round. A fork would trip the prepare handler's own diagnostic
  // first, which the expected message does not match.
  Rng gen(37);
  const EdgeList el = gnp(120, 0.05, gen);
  const auto build = [](EdgeSpan piece, const PartitionContext&, Rng&) {
    return piece.num_edges();
  };
  const auto account = [](std::size_t) { return MessageSize{0, 1}; };
  struct RecirculatingFold {
    void absorb(std::size_t&, std::size_t, MpcRoundContext&) {}
    EdgeList finish(std::vector<std::size_t>&, MpcRoundContext& ctx, Rng&) {
      return ctx.active_edges().to_edge_list();
    }
  } fold;
  for (const bool keep_host : {false, true}) {
    MpcEngineConfig cfg = config(el, 2, /*timeout_ms=*/5000);
    cfg.round_invariant_build = keep_host;
    Rng rng(37);
    EXPECT_DEATH(
        {
          ::pthread_atfork(
              [] {
                std::fputs("a worker was forked\n", stderr);
                std::abort();
              },
              nullptr, nullptr);
          (void)run_mpc_rounds(el, cfg, 0, rng, nullptr, build, account,
                               fold);
        },
        "RCC_CHECK failed: .*cross-process engine transports require Edge "
        "pieces and .*a wire-serializable summary");
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothMedia, TransportDeathTest,
    ::testing::Values(EngineTransport::kSocket, EngineTransport::kShm),
    [](const ::testing::TestParamInfo<EngineTransport>& info) {
      return std::string(info.param == EngineTransport::kShm ? "Shm"
                                                              : "Socket");
    });

}  // namespace
}  // namespace rcc
