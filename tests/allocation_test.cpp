// Heap-allocation regression tests for the round-persistent workspace paths.
//
// This binary replaces the global allocation functions with counting
// wrappers, warms a workspace by running each scratch-aware kernel once, and
// then asserts the SECOND invocation performs zero heap allocations. This is
// the strongest form of the allocation-discipline contract: not "few", not
// "tracked by the workspace counters" — none, measured at operator new.
//
// The same counters pin the uplink decode: a received summary frame's
// storage becomes the decoded edge list, with no second edge buffer.
//
// Scope note: the counters are process-global, so every measured window must
// avoid gtest assertions (they allocate on failure paths); windows compute
// into plain variables and the EXPECTs run after the window closes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "evidence/coreset/kernel.hpp"
#include "distributed/summary_wire.hpp"
#include "graph/edge_list.hpp"
#include "graph/edge_source.hpp"
#include "graph/generators.hpp"
#include "graph/graph_pack.hpp"
#include "matching/blossom.hpp"
#include "matching/greedy.hpp"
#include "matching/matching.hpp"
#include "matching/max_matching.hpp"
#include "mpc/mpc_engine.hpp"
#include "partition/sharded_partition.hpp"
#include "util/workspace.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               ((size + static_cast<std::size_t>(align) - 1) /
                                static_cast<std::size_t>(align)) *
                                   static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace rcc {
namespace {

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::size_t allocated_bytes() {
  return g_bytes.load(std::memory_order_relaxed);
}

TEST(AllocationFree, GreedyMatchingIntoOnWarmScratch) {
  Rng gen(11);
  const EdgeList graph = gnp(500, 8.0 / 500, gen);
  MachineScratch scratch;
  Matching out;
  Rng rng(3);
  greedy_maximal_matching_into(out, graph, GreedyOrder::kRandom, rng, &scratch);
  const std::size_t warm_size = out.size();

  Rng rng2(3);
  const std::size_t before = allocations();
  greedy_maximal_matching_into(out, graph, GreedyOrder::kRandom, rng2,
                               &scratch);
  const std::size_t after = allocations();
  EXPECT_EQ(after, before) << "warm greedy_maximal_matching_into allocated";
  EXPECT_EQ(out.size(), warm_size);
}

TEST(AllocationFree, GreedyByKeyIntoOnWarmScratch) {
  Rng gen(12);
  const EdgeList graph = gnp(400, 8.0 / 400, gen);
  MachineScratch scratch;
  Matching out;
  const auto key = [](const Edge& e) { return static_cast<double>(e.v); };
  greedy_maximal_matching_by_into(out, graph, key, &scratch);

  const std::size_t before = allocations();
  greedy_maximal_matching_by_into(out, graph, key, &scratch);
  const std::size_t after = allocations();
  EXPECT_EQ(after, before) << "warm greedy_maximal_matching_by_into allocated";
}

TEST(AllocationFree, VertexCapKernelIntoOnWarmScratch) {
  Rng gen(13);
  const EdgeList graph = gnp(400, 10.0 / 400, gen);
  MachineScratch scratch;
  EdgeList out;
  vertex_cap_kernel_into(out, graph, 2, &scratch);
  const std::size_t warm_edges = out.num_edges();

  const std::size_t before = allocations();
  vertex_cap_kernel_into(out, graph, 2, &scratch);
  const std::size_t after = allocations();
  EXPECT_EQ(after, before) << "warm vertex_cap_kernel_into allocated";
  EXPECT_EQ(out.num_edges(), warm_edges);
}

TEST(AllocationFree, MaximumMatchingIntoOnWarmScratch) {
  Rng gen(15);
  const EdgeList general = gnp(300, 6.0 / 300, gen);
  const EdgeList bipartite = random_bipartite(150, 150, 0.05, gen);
  MachineScratch scratch;
  Matching out;
  maximum_matching_into(out, general, 0, &scratch);
  {
    const std::size_t before = allocations();
    maximum_matching_into(out, general, 0, &scratch);
    const std::size_t after = allocations();
    EXPECT_EQ(after, before) << "warm blossom maximum_matching_into allocated";
  }
  maximum_matching_into(out, bipartite, 150, &scratch);
  {
    const std::size_t before = allocations();
    maximum_matching_into(out, bipartite, 150, &scratch);
    const std::size_t after = allocations();
    EXPECT_EQ(after, before) << "warm HK maximum_matching_into allocated";
  }
}

TEST(AllocationFree, PieceMaximumMatchingIntoOnWarmScratch) {
  // The certified piece solve: the seed alone on a sparse piece, and the
  // seed plus the exact fallback on pieces the certificate does not close
  // (a dense gnp; K_{2,4} blocks, whose core bound 3 exceeds their maximum
  // 2), in both dispatch branches.
  Rng gen(17);
  const EdgeList sparse = gnp(300, 1.5 / 300, gen);
  const EdgeList dense = gnp(300, 6.0 / 300, gen);
  constexpr VertexId kBlocks = 40;
  EdgeList bipartite(6 * kBlocks);  // left side: 2 vertices per block
  for (VertexId b = 0; b < kBlocks; ++b) {
    for (VertexId l = 0; l < 2; ++l) {
      for (VertexId r = 0; r < 4; ++r) {
        bipartite.add(2 * b + l, 2 * kBlocks + 4 * b + r);
      }
    }
  }
  MachineScratch scratch;
  Matching out;
  for (const EdgeList* piece : {&sparse, &dense}) {
    certified_maximum_matching_into(out, *piece, 0, &scratch);
  }
  certified_maximum_matching_into(out, bipartite, 2 * kBlocks, &scratch);
  {
    const std::size_t before = allocations();
    certified_maximum_matching_into(out, sparse, 0, &scratch);
    certified_maximum_matching_into(out, dense, 0, &scratch);
    const std::size_t after = allocations();
    EXPECT_EQ(after, before) << "warm general piece solve allocated";
  }
  {
    const std::size_t before = allocations();
    certified_maximum_matching_into(out, bipartite, 2 * kBlocks, &scratch);
    const std::size_t after = allocations();
    EXPECT_EQ(after, before) << "warm bipartite piece solve allocated";
  }
}

TEST(AllocationFree, WarmStartedBlossomOnWarmScratch) {
  // The forest finish of a warm-started solve: a maximum matching of a
  // sparse general graph with four edges removed, finished with and without
  // a size bound.
  Rng gen(18);
  const Graph g(gnp(400, 3.0 / 400, gen));
  MachineScratch scratch;
  Matching out;
  Matching seed = blossom_maximum_matching(g, &scratch);
  const std::size_t maximum = seed.size();
  for (VertexId v = 0, holes = 0; holes < 4; ++v) {
    if (seed.is_matched(v)) {
      seed.unmatch(v);
      ++holes;
    }
  }
  blossom_maximum_matching_into(out, g, &scratch, true, &seed);
  const std::size_t before = allocations();
  blossom_maximum_matching_into(out, g, &scratch, true, &seed);
  blossom_maximum_matching_into(out, g, &scratch, true, &seed, maximum);
  const std::size_t after = allocations();
  EXPECT_EQ(after, before) << "warm forest finish allocated";
  EXPECT_EQ(out.size(), maximum);
}

TEST(AllocationFree, RepartitionOnWarmScratchAndArena) {
  Rng gen(16);
  const EdgeList graph = gnp(600, 10.0 / 600, gen);
  ProtocolWorkspace ws;
  ShardedPartition<Edge> parts;
  Rng rng(5);
  parts.repartition(
      std::span<const Edge>(graph.edges().data(), graph.num_edges()),
      graph.num_vertices(), 8, rng, nullptr, &ws.partition());

  const std::size_t before = allocations();
  parts.repartition(
      std::span<const Edge>(graph.edges().data(), graph.num_edges()),
      graph.num_vertices(), 8, rng, nullptr, &ws.partition());
  const std::size_t after = allocations();
  EXPECT_EQ(after, before) << "warm repartition allocated";
  EXPECT_EQ(parts.num_edges(), graph.num_edges());
}

TEST(AllocationFree, WarmExecutorRoundsStayWithinSmallByteBudget) {
  // Executor-level guard for the "steady-state rounds allocate zero heap"
  // claim, measured at operator new in BYTES: a warm-workspace multi-round
  // run over a fold that recirculates all m edges must cost only small
  // per-round bookkeeping (O(k) vectors, ledger labels). If a fold or the
  // executor regressed to materializing the edge set each round, every
  // round would allocate >= m * sizeof(Edge) = 32 KiB here and the budget
  // (chosen ~10x above the measured bookkeeping, ~5x below one round of
  // materialization) would blow immediately.
  Rng gen(18);
  const EdgeList graph = gnm(1000, 4000, gen);
  ProtocolWorkspace ws;
  MpcEngineConfig config;
  config.mpc.num_machines = 4;
  config.mpc.memory_words = std::uint64_t{1} << 40;
  config.max_rounds = 6;
  config.early_stop = false;
  const auto build = [](EdgeSpan piece, const PartitionContext&, Rng&) {
    return piece.num_edges();  // summary: a count, nothing else
  };
  const auto account = [](std::size_t) { return MessageSize{0, 1}; };
  struct RecirculatingFold {
    void absorb(std::size_t&, std::size_t, MpcRoundContext&) {}
    EdgeList finish(std::vector<std::size_t>&, MpcRoundContext& ctx, Rng&) {
      ctx.survivors_out().assign(ctx.active_edges());
      return std::move(ctx.survivors_out());
    }
  };

  // Warm-up run grows every buffer; the measured run reuses them all.
  {
    Rng rng(9);
    RecirculatingFold fold;
    (void)run_mpc_rounds(graph, config, 0, rng, nullptr, build, account, fold,
                         &ws);
  }
  Rng rng(9);
  RecirculatingFold fold;
  const std::size_t before = allocated_bytes();
  const MpcExecutionStats stats = run_mpc_rounds(graph, config, 0, rng,
                                                 nullptr, build, account, fold,
                                                 &ws);
  const std::size_t spent = allocated_bytes() - before;
  EXPECT_EQ(stats.engine_rounds, 6u);
  EXPECT_LT(spent, 16u * 1024u)
      << "warm 6-round executor run allocated " << spent
      << " bytes — a per-round edge-set materialization costs "
      << 6 * graph.num_edges() * sizeof(Edge);
}

TEST(AllocationFree, MappedGraphReadPathIsAllocationFree) {
  // The whole point of the mmap seam: once the pack is mapped, reading it —
  // EdgeSource construction, span views, a full sweep over every record,
  // and residency drops — must not touch the heap at all. The kernel pages
  // the bytes in; operator new never runs. (Construction itself allocates:
  // the path copy and the open; only the read path is pinned here.)
  Rng gen(19);
  const EdgeList graph = gnm(2000, 12000, gen);
  const std::string path = ::testing::TempDir() + "allocation_test_pack.rgp";
  GraphPack::write(graph, path);
  const MappedGraph mapped(path);

  const std::size_t before = allocations();
  const EdgeSource source(mapped);
  const EdgeSpan view = source.edges();
  std::uint64_t checksum = 0;
  for (const Edge& e : view) checksum += e.u ^ (std::uint64_t{e.v} << 20);
  mapped.drop_resident(0, mapped.num_edges());
  for (std::size_t i = 0; i < view.num_edges(); ++i) {
    checksum -= view[i].u ^ (std::uint64_t{view[i].v} << 20);
  }
  const std::size_t after = allocations();
  EXPECT_EQ(checksum, 0u);
  EXPECT_EQ(source.origin(), EdgeOrigin::kMapped);
  EXPECT_EQ(after, before) << "mapped read path allocated";

  // And the seam composes with the warm-workspace contract: repartitioning
  // straight off the mapping is as allocation-free as from the heap list.
  ProtocolWorkspace ws;
  ShardedPartition<Edge> parts;
  Rng rng(7);
  parts.repartition(std::span<const Edge>(view.data(), view.num_edges()),
                    mapped.num_vertices(), 8, rng, nullptr, &ws.partition());
  const std::size_t warm_before = allocations();
  parts.repartition(std::span<const Edge>(view.data(), view.num_edges()),
                    mapped.num_vertices(), 8, rng, nullptr, &ws.partition());
  const std::size_t warm_after = allocations();
  EXPECT_EQ(warm_after, warm_before) << "warm repartition from mmap allocated";
  EXPECT_EQ(parts.num_edges(), mapped.num_edges());
  std::remove(path.c_str());
}

TEST(AllocationFree, ValueTypeResetAndAssignKeepCapacity) {
  Rng gen(17);
  const EdgeList graph = gnp(200, 8.0 / 200, gen);
  Matching m(graph.num_vertices());
  EdgeList survivors;
  survivors.assign(graph);

  const std::size_t before = allocations();
  m.reset(graph.num_vertices());
  survivors.reset(graph.num_vertices());
  survivors.assign_filtered(graph,
                            [](const Edge& e) { return e.u % 2 == 0; });
  survivors.reset(graph.num_vertices());
  survivors.assign(graph);
  const std::size_t after = allocations();
  EXPECT_EQ(after, before) << "reset/assign on warm value types allocated";
}

/// A summary frame as the coordinator receives it: header decoded, payload
/// in the frame's own storage.
ReadyFrame received(const std::vector<std::uint8_t>& bytes) {
  ReadyFrame frame(decode_frame_header(bytes.data()));
  std::memcpy(frame.bytes(), bytes.data() + kFrameHeaderBytes, frame.size());
  return frame;
}

TEST(AllocationFree, DecodingAReceivedFrameAdoptsItsStorage) {
  Rng gen(18);
  const EdgeList graph = gnp(2000, 8.0 / 2000, gen);
  ReadyFrame frame = received(encode_frame(graph, 1));
  const std::uint8_t* storage = frame.bytes();

  std::size_t before = allocations();
  const EdgeList list = decode_frame<EdgeList>(std::move(frame));
  std::size_t after = allocations();
  EXPECT_EQ(after, before) << "decoding an edge list frame allocated";
  EXPECT_EQ(reinterpret_cast<const std::uint8_t*>(list.edges().data()),
            storage);
  EXPECT_EQ(list.edges(), graph.edges());

  // A VC frame's residual edges adopt the storage too; the only allocation
  // is the summary's own fixed-vertex list, at its exact size.
  VcCoresetOutput coreset;
  coreset.residual_edges = graph;
  coreset.fixed_vertices = {3, 1999, 7};
  frame = received(encode_frame(coreset, 2));
  storage = frame.bytes();
  before = allocations();
  const std::size_t bytes_before = allocated_bytes();
  const VcCoresetOutput vc = decode_frame<VcCoresetOutput>(std::move(frame));
  after = allocations();
  const std::size_t bytes = allocated_bytes() - bytes_before;
  EXPECT_EQ(after - before, 1u) << "decoding a VC frame copied its edges";
  EXPECT_EQ(bytes, sizeof(VertexId) * coreset.fixed_vertices.size());
  EXPECT_EQ(
      reinterpret_cast<const std::uint8_t*>(vc.residual_edges.edges().data()),
      storage);
  EXPECT_EQ(vc.residual_edges.edges(), graph.edges());
  EXPECT_EQ(vc.fixed_vertices, coreset.fixed_vertices);
}

}  // namespace
}  // namespace rcc
