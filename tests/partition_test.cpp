#include "evidence/partition/adversarial.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/generators.hpp"
#include "partition/sharded_partition.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

TEST(RandomPartition, PreservesEveryEdgeExactlyOnce) {
  Rng rng(1);
  const EdgeList el = gnp(300, 0.05, rng);
  const auto parts = shard_random(el, 7, rng);
  ASSERT_EQ(parts.num_machines(), 7u);
  std::vector<Edge> merged(parts.arena().begin(), parts.arena().end());
  EXPECT_EQ(merged.size(), el.num_edges());
  std::vector<Edge> sorted_in(el.begin(), el.end());
  std::sort(sorted_in.begin(), sorted_in.end());
  std::sort(merged.begin(), merged.end());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i], sorted_in[i]);
  }
}

TEST(RandomPartition, SingleMachineGetsEverything) {
  Rng rng(2);
  const EdgeList el = gnp(100, 0.1, rng);
  const auto parts = shard_random(el, 1, rng);
  ASSERT_EQ(parts.num_machines(), 1u);
  EXPECT_EQ(shard_span(parts, 0).num_edges(), el.num_edges());
}

TEST(RandomPartition, BalancedInExpectation) {
  Rng rng(3);
  const EdgeList el = gnp(600, 0.1, rng);  // ~18k edges
  const std::size_t k = 10;
  const auto parts = shard_random(el, k, rng);
  std::size_t min_edges = parts.shard_size(0);
  std::size_t max_edges = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < k; ++i) {
    min_edges = std::min(min_edges, parts.shard_size(i));
    max_edges = std::max(max_edges, parts.shard_size(i));
    total += parts.shard_size(i);
  }
  const double expected = static_cast<double>(el.num_edges()) / k;
  EXPECT_NEAR(static_cast<double>(total) / k, expected, 1e-9);
  // 5-sigma binomial bound.
  const double sigma = std::sqrt(expected * (1.0 - 1.0 / k));
  EXPECT_GT(static_cast<double>(min_edges), expected - 5 * sigma);
  EXPECT_LT(static_cast<double>(max_edges), expected + 5 * sigma);
}

TEST(RandomPartition, MachineAssignmentIsUniformPerEdge) {
  EdgeList el(2);
  el.add(0, 1);
  Rng rng(4);
  const std::size_t k = 4;
  std::vector<int> counts(k, 0);
  const int trials = 40000;
  for (int t = 0; t < trials; ++t) {
    const auto parts = shard_random(el, k, rng);
    for (std::size_t i = 0; i < k; ++i) {
      if (!shard_span(parts, i).empty()) ++counts[i];
    }
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.25, 0.01);
  }
}

TEST(RandomPartitionWeighted, PreservesEdgesAndWeights) {
  WeightedEdgeList w;
  w.num_vertices = 10;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(9));
    w.add(u, static_cast<VertexId>(u + 1), rng.uniform_real(0.0, 5.0));
  }
  const auto parts = shard_random(w, 5, rng);
  std::size_t total = 0;
  double weight_total = 0.0;
  for (std::size_t i = 0; i < parts.num_machines(); ++i) {
    const WeightedEdgeSpan p = shard_span(parts, i);
    EXPECT_EQ(p.num_vertices(), 10u);
    total += p.num_edges();
    for (const auto& e : p) weight_total += e.weight;
  }
  EXPECT_EQ(total, 100u);
  double original_weight = 0.0;
  for (const auto& e : w.edges) original_weight += e.weight;
  EXPECT_DOUBLE_EQ(weight_total, original_weight);
}

/// Order-sensitive FNV-1a hash of one shard's edge payloads (weights by
/// their bit pattern), so a golden pins each shard's content and order.
template <typename EdgeT>
std::uint64_t shard_hash(std::span<const EdgeT> shard) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int b = 0; b < 8; ++b, x >>= 8) {
      h = (h ^ (x & 0xFF)) * 1099511628211ull;
    }
  };
  for (const EdgeT& e : shard) {
    mix(e.u);
    mix(e.v);
    if constexpr (std::is_same_v<EdgeT, WeightedEdge>) {
      mix(std::bit_cast<std::uint64_t>(e.weight));
    }
  }
  return h;
}

template <typename EdgeT>
void expect_golden(const ShardedPartition<EdgeT>& parts,
                   const std::vector<std::size_t>& sizes,
                   const std::vector<std::uint64_t>& hashes) {
  ASSERT_EQ(parts.num_machines(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(parts.shard_size(i), sizes[i]) << "machine " << i;
    EXPECT_EQ(shard_hash(parts.shard(i)), hashes[i]) << "machine " << i;
  }
}

// Goldens: every caller that drives machines by hand reads these shards,
// so their sizes and contents are pinned byte for byte. m spans three
// partition batches.
TEST(RandomPartitionGolden, UnweightedShardsArePinned) {
  Rng rng(41);
  const EdgeList el = gnm(6000, 40000, rng);
  ASSERT_GT(el.num_edges(), 2 * kPartitionBatchEdges);
  expect_golden(shard_random(el, 7, rng),
                {5592, 5788, 5660, 5744, 5818, 5720, 5678},
                {0x3b8cf6870e948d55, 0xd0c0bfe61d6fba3c, 0xa8b807d35e9d22f4,
                 0xcb4b0d0b8a29644a, 0xc813eef84efa0448, 0x8f2a6824cdfb692e,
                 0x15afad07b8aebfaa});
}

TEST(RandomPartitionGolden, WeightedShardsArePinned) {
  Rng rng(42);
  WeightedEdgeList w;
  w.num_vertices = 6000;
  for (const Edge& e : gnm(6000, 40000, rng)) {
    w.add(e.u, e.v, rng.uniform_real(0.0, 100.0));
  }
  ASSERT_GT(w.edges.size(), 2 * kPartitionBatchEdges);
  expect_golden(shard_random(w, 7, rng),
                {5669, 5773, 5755, 5631, 5725, 5703, 5744},
                {0xe01ebb8b4f177afa, 0x496ee86f3ef66a6d, 0x461b274acbc94504,
                 0x7ee15f37edd7059e, 0x368abecc5b824475, 0xc09585d313036e0f,
                 0xe88c13a3cc0ce41f});
}

TEST(SortedChunkPartition, ContiguousAndComplete) {
  Rng rng(6);
  const EdgeList el = gnp(100, 0.2, rng);
  const auto parts = sorted_chunk_partition(el, 4);
  std::size_t total = 0;
  for (const auto& p : parts) total += p.num_edges();
  EXPECT_EQ(total, el.num_edges());
  // Chunks are sorted and non-overlapping: last edge of part i <= first of i+1.
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    if (parts[i].empty() || parts[i + 1].empty()) continue;
    EXPECT_LE(parts[i][parts[i].num_edges() - 1], parts[i + 1][0]);
  }
}

TEST(ByVertexPartition, GroupsEdgesByLeftEndpoint) {
  Rng rng(7);
  const EdgeList el = gnp(50, 0.3, rng);
  const auto parts = by_vertex_partition(el, 5);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    for (const Edge& e : parts[i]) {
      EXPECT_EQ(e.u % 5, i);
    }
  }
}

TEST(RandomPartition, ShardSizesGiveMinMaxMean) {
  // Three edges on three machines; at this seed the dice give machine sizes
  // 1, 0, 2, read off the offset index.
  EdgeList el(4);
  el.add(0, 1);
  el.add(1, 2);
  el.add(2, 3);
  Rng rng(8);
  const auto parts = shard_random(el, 3, rng);
  std::vector<std::size_t> sizes;
  for (std::size_t i = 0; i < 3; ++i) sizes.push_back(parts.shard_size(i));
  const auto [min_it, max_it] = std::minmax_element(sizes.begin(), sizes.end());
  EXPECT_EQ(*min_it, 0u);
  EXPECT_EQ(*max_it, 2u);
  EXPECT_DOUBLE_EQ(static_cast<double>(parts.num_edges()) / 3, 1.0);
}

TEST(RandomVertexPartition, EveryEdgeOnItsEndpointsMachines) {
  Rng rng(20);
  const EdgeList el = gnp(200, 0.05, rng);
  const std::size_t k = 5;
  const auto parts = random_vertex_partition(el, k, rng);
  // Each edge appears once (same owner) or twice (different owners); the
  // union must contain every edge, and total copies <= 2m.
  std::size_t total = 0;
  for (const auto& p : parts) total += p.num_edges();
  EXPECT_GE(total, el.num_edges());
  EXPECT_LE(total, 2 * el.num_edges());
  EdgeList merged = EdgeList::union_of(parts);
  merged.dedup();
  EdgeList expected = el;
  expected.dedup();
  EXPECT_EQ(merged.num_edges(), expected.num_edges());
}

TEST(RandomVertexPartition, DuplicationRateMatchesModel) {
  // An edge is duplicated iff its endpoints land on different machines:
  // probability 1 - 1/k.
  Rng rng(21);
  const EdgeList el = gnp(400, 0.05, rng);
  const std::size_t k = 8;
  const auto parts = random_vertex_partition(el, k, rng);
  std::size_t total = 0;
  for (const auto& p : parts) total += p.num_edges();
  const double dup_rate =
      static_cast<double>(total - el.num_edges()) / el.num_edges();
  EXPECT_NEAR(dup_rate, 1.0 - 1.0 / k, 0.05);
}

}  // namespace
}  // namespace rcc
