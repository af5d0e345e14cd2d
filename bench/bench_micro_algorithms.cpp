// Micro-benchmarks (google-benchmark) of the algorithmic kernels the
// experiments are built on: matching solvers, partitioner, coreset builds,
// and the G(n, m) generator with its sampler.
#include <benchmark/benchmark.h>

#include "coreset/matching_coresets.hpp"
#include "coreset/vc_coreset.hpp"
#include "graph/generators.hpp"
#include "matching/blossom.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "partition/sharded_partition.hpp"
#include "util/rng.hpp"

namespace {

using namespace rcc;

void BM_HopcroftKarp(benchmark::State& state) {
  const auto side = static_cast<VertexId>(state.range(0));
  Rng rng(1);
  const EdgeList el = random_bipartite(side, side, 6.0 / side, rng);
  const Graph g = bipartite_graph(el, side);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hopcroft_karp(g).size());
  }
  state.SetItemsProcessed(state.iterations() * el.num_edges());
}
BENCHMARK(BM_HopcroftKarp)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

void BM_Blossom(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  Rng rng(2);
  const EdgeList el = gnp(n, 6.0 / n, rng);
  const Graph g(el);
  for (auto _ : state) {
    benchmark::DoNotOptimize(blossom_maximum_matching(g).size());
  }
  state.SetItemsProcessed(state.iterations() * el.num_edges());
}
BENCHMARK(BM_Blossom)->Arg(1 << 10)->Arg(1 << 12);

void BM_GreedyMaximal(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  Rng rng(3);
  const EdgeList el = gnp(n, 8.0 / n, rng);
  for (auto _ : state) {
    Rng inner(4);
    benchmark::DoNotOptimize(
        greedy_maximal_matching(el, GreedyOrder::kGiven, inner).size());
  }
  state.SetItemsProcessed(state.iterations() * el.num_edges());
}
BENCHMARK(BM_GreedyMaximal)->Arg(1 << 14)->Arg(1 << 17);

void BM_ShardRandom(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  Rng rng(5);
  const EdgeList el = gnp(n, 8.0 / n, rng);
  for (auto _ : state) {
    Rng inner(6);
    benchmark::DoNotOptimize(shard_random(el, 32, inner).num_edges());
  }
  state.SetItemsProcessed(state.iterations() * el.num_edges());
}
BENCHMARK(BM_ShardRandom)->Arg(1 << 14)->Arg(1 << 17);

void BM_PeelingVcCoreset(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  Rng rng(7);
  const EdgeList el = gnp(n, 12.0 / n, rng);
  const auto parts = shard_random(el, 8, rng);
  const PeelingVcCoreset coreset;
  PartitionContext ctx{n, 8, 0, 0};
  for (auto _ : state) {
    Rng inner(8);
    benchmark::DoNotOptimize(
        coreset.build(shard_span(parts, 0), ctx, inner).size_items());
  }
}
BENCHMARK(BM_PeelingVcCoreset)->Arg(1 << 14)->Arg(1 << 16);

void BM_MaximumMatchingCoreset(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  Rng rng(9);
  const EdgeList el = gnp(n, 8.0 / n, rng);
  const auto parts = shard_random(el, 8, rng);
  const MaximumMatchingCoreset coreset;
  PartitionContext ctx{n, 8, 0, 0};
  for (auto _ : state) {
    Rng inner(10);
    benchmark::DoNotOptimize(
        coreset.build(shard_span(parts, 0), ctx, inner).num_edges());
  }
}
BENCHMARK(BM_MaximumMatchingCoreset)->Arg(1 << 14)->Arg(1 << 16);

// Floyd's sampler at the G(n, m) shape the experiments use: k = 8n codes
// out of the n(n-1)/2 vertex pairs.
void BM_SampleDistinct(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.sample_distinct(n * (n - 1) / 2, 8 * n).size());
  }
  state.SetItemsProcessed(state.iterations() * 8 * state.range(0));
}
BENCHMARK(BM_SampleDistinct)->Arg(1 << 14)->Arg(1 << 17);

void BM_Gnm(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  Rng rng(12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gnm(n, 8ULL * n, rng).num_edges());
  }
  state.SetItemsProcessed(state.iterations() * 8 * state.range(0));
}
BENCHMARK(BM_Gnm)->Arg(1 << 14)->Arg(1 << 17);

}  // namespace

BENCHMARK_MAIN();
