// ProtocolEngine tests: the sharded partitioner's exactly-once /
// determinism guarantees, equivalence of the full pipeline with the
// pre-made-pieces driver (run_matching_protocol_on_partition), the
// partition arena's release before the combine, and the transport flag
// bundle (add_streaming_flags) with its strict exit(2) on bad values.
#include "distributed/protocol_engine.hpp"

#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <string>

#include "coreset/matching_coresets.hpp"
#include "distributed/protocols.hpp"
#include "graph/generators.hpp"
#include "matching/max_matching.hpp"
#include "partition/sharded_partition.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

std::vector<Edge> sorted_edges(EdgeSpan span) {
  std::vector<Edge> edges(span.begin(), span.end());
  std::sort(edges.begin(), edges.end());
  return edges;
}

TEST(ShardedPartition, PreservesEveryEdgeExactlyOnce) {
  Rng gen(1);
  const EdgeList el = gnp(500, 0.04, gen);
  const std::size_t k = 7;
  Rng rng(11);
  const ShardedPartition<Edge> parts = shard_random(el, k, rng);
  ASSERT_EQ(parts.num_machines(), k);
  EXPECT_EQ(parts.num_edges(), el.num_edges());

  std::vector<Edge> merged;
  for (std::size_t i = 0; i < k; ++i) {
    const auto s = parts.shard(i);
    EXPECT_EQ(s.size(), parts.shard_size(i));
    merged.insert(merged.end(), s.begin(), s.end());
  }
  std::sort(merged.begin(), merged.end());
  EXPECT_EQ(merged, sorted_edges(el));
}

TEST(ShardedPartition, ShardsKeepGlobalInputOrder) {
  // The scatter is stable: within one machine, edges appear in the order
  // they occur in the input stream (what a sequential partitioner yields).
  Rng gen(2);
  EdgeList el(1000);
  for (VertexId v = 0; v + 1 < 1000; ++v) el.add(v, v + 1);  // distinct edges
  std::vector<std::size_t> position(el.num_edges());
  for (std::size_t i = 0; i < el.num_edges(); ++i) position[el[i].u] = i;

  Rng rng(3);
  const ShardedPartition<Edge> parts = shard_random(el, 5, rng);
  for (std::size_t i = 0; i < parts.num_machines(); ++i) {
    const auto s = parts.shard(i);
    for (std::size_t j = 1; j < s.size(); ++j) {
      EXPECT_LT(position[s[j - 1].u], position[s[j].u]);
    }
  }
}

TEST(ShardedPartition, DeterministicForFixedSeedRegardlessOfThreadCount) {
  Rng gen(4);
  // > kPartitionBatchEdges edges so several batches are in play.
  const EdgeList el = gnp(2000, 0.01, gen);
  ASSERT_GT(el.num_edges(), kPartitionBatchEdges);

  const std::size_t k = 6;
  Rng rng_seq(77);
  const ShardedPartition<Edge> seq = shard_random(el, k, rng_seq);
  for (std::size_t threads : {1u, 3u, 8u}) {
    ThreadPool pool(threads);
    Rng rng_par(77);
    const ShardedPartition<Edge> par = shard_random(el, k, rng_par, &pool);
    ASSERT_EQ(par.offsets(), seq.offsets()) << threads << " threads";
    for (std::size_t i = 0; i < k; ++i) {
      const auto a = seq.shard(i);
      const auto b = par.shard(i);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "machine " << i << ", " << threads << " threads";
    }
  }
}

TEST(ShardedPartition, ShardSpansMatchWithAndWithoutAPool) {
  Rng gen(5);
  const EdgeList el = gnp(800, 0.02, gen);
  const std::size_t k = 4;
  ThreadPool pool(3);
  Rng a(9), b(9);
  const ShardedPartition<Edge> serial = shard_random(el, k, a);
  const ShardedPartition<Edge> pooled = shard_random(el, k, b, &pool);
  ASSERT_EQ(serial.num_machines(), pooled.num_machines());
  for (std::size_t i = 0; i < k; ++i) {
    const EdgeSpan s = shard_span(serial, i);
    const EdgeSpan p = shard_span(pooled, i);
    EXPECT_EQ(s.num_vertices(), el.num_vertices());
    ASSERT_EQ(s.num_edges(), p.num_edges());
    for (std::size_t j = 0; j < s.num_edges(); ++j) {
      EXPECT_EQ(s[j], p[j]);
    }
  }
}

TEST(ShardedPartition, WeightedPreservesEdgesAndWeights) {
  WeightedEdgeList w;
  w.num_vertices = 50;
  Rng gen(6);
  for (int i = 0; i < 3000; ++i) {
    const auto u = static_cast<VertexId>(gen.next_below(49));
    w.add(u, static_cast<VertexId>(u + 1), gen.uniform_real(0.1, 9.0));
  }
  Rng rng(7);
  const ShardedPartition<WeightedEdge> parts = shard_random(w, 6, rng);
  std::vector<double> shard_weights;
  for (std::size_t i = 0; i < parts.num_machines(); ++i) {
    for (const WeightedEdge& e : parts.shard(i)) {
      shard_weights.push_back(e.weight);
    }
  }
  ASSERT_EQ(shard_weights.size(), w.edges.size());
  std::vector<double> original;
  for (const auto& e : w.edges) original.push_back(e.weight);
  std::sort(shard_weights.begin(), shard_weights.end());
  std::sort(original.begin(), original.end());
  EXPECT_EQ(shard_weights, original);  // exact multiset equality
}

TEST(ProtocolEngine, MatchingProtocolEqualsManualPartitionPlusLegacyDriver) {
  // run_matching_protocol == (sharded partition, then the on_partition
  // driver over its shards) when both consume the same RNG stream.
  Rng gen(8);
  const EdgeList el = gnp(1500, 5.0 / 1500, gen);
  const std::size_t k = 6;
  const MaximumMatchingCoreset coreset;

  Rng engine_rng(123);
  const MatchingProtocolResult engine = run_matching_protocol(
      el, k, coreset, ComposeSolver::kMaximum, 0, engine_rng, nullptr);

  Rng manual_rng(123);
  const ShardedPartition<Edge> parts = shard_random(el, k, manual_rng);
  const MatchingProtocolResult manual = run_matching_protocol_on_partition(
      pieces_of(parts), parts.num_vertices(), coreset, ComposeSolver::kMaximum,
      0, manual_rng);

  EXPECT_EQ(engine.solution.size(), manual.solution.size());
  EXPECT_EQ(engine.comm.total_words(), manual.comm.total_words());
  ASSERT_EQ(engine.summaries.size(), manual.summaries.size());
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(engine.summaries[i].num_edges(), manual.summaries[i].num_edges());
  }
}

TEST(ProtocolEngine, BipartiteInstanceMatchesLegacyDriverAndStaysValid) {
  Rng gen(10);
  const VertexId side = 600;
  const EdgeList el = random_bipartite(side, side, 4.0 / side, gen);
  const std::size_t k = 4;
  const MaximumMatchingCoreset coreset;

  Rng engine_rng(55);
  const MatchingProtocolResult engine = run_matching_protocol(
      el, k, coreset, ComposeSolver::kMaximum, side, engine_rng, nullptr);
  EXPECT_TRUE(engine.solution.valid());
  EXPECT_TRUE(engine.solution.subset_of(el));

  Rng manual_rng(55);
  const ShardedPartition<Edge> parts = shard_random(el, k, manual_rng);
  const MatchingProtocolResult manual = run_matching_protocol_on_partition(
      pieces_of(parts), parts.num_vertices(), coreset, ComposeSolver::kMaximum,
      side, manual_rng);
  EXPECT_EQ(engine.solution.size(), manual.solution.size());
}

TEST(ProtocolEngine, ParallelMachinePhaseMatchesSequential) {
  Rng gen(11);
  const EdgeList el = gnp(1000, 8.0 / 1000, gen);
  ThreadPool pool(4);
  Rng a(99), b(99);
  const MatchingProtocolResult seq =
      coreset_matching_protocol(el, 8, 0, a, nullptr);
  const MatchingProtocolResult par =
      coreset_matching_protocol(el, 8, 0, b, &pool);
  EXPECT_EQ(seq.solution.size(), par.solution.size());
  EXPECT_EQ(seq.comm.total_words(), par.comm.total_words());
}

TEST(ProtocolEngine, EmptyGraphAndSingleMachine) {
  Rng rng(12);
  const EdgeList empty(64);
  const MatchingProtocolResult r =
      coreset_matching_protocol(empty, 4, 0, rng, nullptr);
  EXPECT_EQ(r.solution.size(), 0u);
  EXPECT_EQ(r.comm.total_words(), 0u);

  Rng rng2(13);
  const EdgeList el = gnp(200, 0.05, rng2);
  const MatchingProtocolResult one =
      coreset_matching_protocol(el, 1, 0, rng2, nullptr);
  EXPECT_TRUE(one.solution.valid());
  EXPECT_EQ(one.solution.size(), maximum_matching_size(el));
}

/// Bytes glibc's malloc holds for live allocations: heap chunks plus
/// mmapped blocks (a multi-megabyte arena can land in either).
std::size_t heap_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

TEST(ProtocolEngine, PartitionArenaIsFreedBeforeTheCombine) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer owns the allocator";
#endif
  Rng gen(8);
  const EdgeList el = gnm(20000, 200000, gen);
  const std::size_t arena_bytes = el.num_edges() * sizeof(Edge);
  std::size_t in_build = 0;
  std::size_t in_combine = 0;
  Rng rng(8);
  // Summaries are plain counts, so the arena is the only large block the
  // call holds while its machines run.
  (void)run_protocol(
      el, /*k=*/4, /*left_size=*/0, rng, /*pool=*/nullptr,
      [&](EdgeSpan piece, const PartitionContext&, Rng&) {
        in_build = heap_in_use();
        return piece.num_edges();
      },
      [](std::size_t) { return MessageSize{1, 0}; },
      [&](std::vector<std::size_t>&, Rng&) {
        in_combine = heap_in_use();
        return 0;
      });
  // The engine's own per-machine ledger is allocated in between; a page
  // covers it.
  EXPECT_GE(in_build + 4096, in_combine + arena_bytes)
      << "in build " << in_build << " B, in combine " << in_combine
      << " B, arena " << arena_bytes << " B";
}

TEST(EngineFlags, TransportFlagsRoundTripIntoStreamingOptions) {
  Options options("protocol_engine_test");
  add_streaming_flags(options);
  add_streaming_flags(options);  // idempotent: double registration is a no-op
  const char* argv[] = {"test", "--engine-transport=socket"};
  options.parse(2, const_cast<char**>(argv));
  const StreamingOptions opts = streaming_options_from_options(options);
  EXPECT_EQ(opts.transport, EngineTransport::kSocket);
}

TEST(EngineFlags, DefaultsSelectTheInprocTransport) {
  Options options("protocol_engine_test");
  add_streaming_flags(options);
  const char* argv[] = {"test"};
  options.parse(1, const_cast<char**>(argv));
  const StreamingOptions opts = streaming_options_from_options(options);
  EXPECT_EQ(opts.transport, EngineTransport::kInproc);
  EXPECT_EQ(opts.worker_host, nullptr);
}

TEST(EngineFlags, ShmTransportFlagsRoundTripIntoStreamingOptions) {
  Options options("protocol_engine_test");
  add_streaming_flags(options);
  const char* argv[] = {"test", "--engine-transport=shm",
                        "--engine-transport-timeout-ms=2500",
                        "--engine-shm-ring-bytes=65536"};
  options.parse(4, const_cast<char**>(argv));
  const StreamingOptions opts = streaming_options_from_options(options);
  EXPECT_EQ(opts.transport, EngineTransport::kShm);
  EXPECT_EQ(opts.timeout_ms, 2500);
  EXPECT_EQ(opts.ring_bytes, 65536u);
}

TEST(EngineFlags, LargestTimeoutIsAccepted) {
  Options options("protocol_engine_test");
  add_streaming_flags(options);
  const char* argv[] = {"test", "--engine-transport-timeout-ms=2147483647"};
  options.parse(2, const_cast<char**>(argv));
  const StreamingOptions opts = streaming_options_from_options(options);
  EXPECT_EQ(opts.timeout_ms, 2147483647);
}

TEST(EngineFlagsDeath, UnknownTransportValueExitsStrictly) {
  Options options("protocol_engine_test");
  add_streaming_flags(options);
  const char* argv[] = {"test", "--engine-transport=pipe"};
  options.parse(2, const_cast<char**>(argv));
  EXPECT_EXIT(streaming_options_from_options(options),
              ::testing::ExitedWithCode(2),
              "flag --engine-transport: 'pipe' is not one of 'inproc', "
              "'socket', 'shm'");
}

TEST(EngineFlagsDeath, UndersizedShmRingExitsStrictly) {
  Options options("protocol_engine_test");
  add_streaming_flags(options);
  const char* argv[] = {"test", "--engine-shm-ring-bytes=32"};
  options.parse(2, const_cast<char**>(argv));
  EXPECT_EXIT(streaming_options_from_options(options),
              ::testing::ExitedWithCode(2),
              "flag --engine-shm-ring-bytes: 32 must be in "
              "\\[64, 1073741824\\]");
}

TEST(EngineFlagsDeath, TimeoutPastIntRangeExitsStrictly) {
  // Regression: the deadline used to be narrowed to int unchecked, so 2^32
  // became a 0 ms deadline and 2^31 a negative one.
  for (const char* value : {"4294967296", "2147483648"}) {
    Options options("protocol_engine_test");
    add_streaming_flags(options);
    const std::string flag = std::string("--engine-transport-timeout-ms=") +
                             value;
    const char* argv[] = {"test", flag.c_str()};
    options.parse(2, const_cast<char**>(argv));
    EXPECT_EXIT(streaming_options_from_options(options),
                ::testing::ExitedWithCode(2),
                std::string("flag --engine-transport-timeout-ms: ") + value +
                    " must be in \\[1, 2147483647\\]")
        << value;
  }
}

TEST(EngineFlagsDeath, NonPositiveTimeoutExitsStrictly) {
  Options options("protocol_engine_test");
  add_streaming_flags(options);
  const char* argv[] = {"test", "--engine-transport-timeout-ms=0"};
  options.parse(2, const_cast<char**>(argv));
  EXPECT_EXIT(streaming_options_from_options(options),
              ::testing::ExitedWithCode(2),
              "flag --engine-transport-timeout-ms: 0 must be in "
              "\\[1, 2147483647\\]");
}

}  // namespace
}  // namespace rcc
