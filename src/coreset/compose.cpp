#include "coreset/compose.hpp"

#include <functional>

#include "matching/greedy.hpp"
#include "matching/max_matching.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"
#include "vertex_cover/approx.hpp"

namespace rcc {

namespace {

/// Runs fn(i) for every machine i, on the pool when there is one.
void for_each_machine(ThreadPool* pool, std::size_t k,
                      const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr) {
    parallel_for(*pool, k, fn);
  } else {
    for (std::size_t i = 0; i < k; ++i) fn(i);
  }
}

}  // namespace

void union_maximum_matching_into(Matching& out,
                                 std::span<const EdgeList> summaries,
                                 VertexId left_size, MachineScratch* scratch) {
  RCC_CHECK(!summaries.empty());
  const VertexId n = summaries.front().num_vertices();
  Graph local;
  Graph& g = scratch != nullptr ? scratch->state<Graph>() : local;
  g.assign_union(summaries, bipartition_if(left_size),
                 scratch != nullptr ? &scratch->cursor(n) : nullptr);
  certified_maximum_matching_into(out, g, scratch);
}

Matching compose_matching_coresets(const std::vector<EdgeList>& coresets,
                                   ComposeSolver solver, VertexId left_size,
                                   Rng& rng) {
  if (solver == ComposeSolver::kMaximum) {
    Matching out;
    union_maximum_matching_into(out, coresets, left_size);
    return out;
  }
  // The random-order greedy scan needs the union as one sequence.
  RCC_CHECK(!coresets.empty());
  std::vector<Edge> all;
  for (const EdgeList& c : coresets) all.insert(all.end(), c.begin(), c.end());
  return greedy_maximal_matching(
      EdgeSpan(all.data(), all.size(), coresets.front().num_vertices()),
      GreedyOrder::kRandom, rng);
}

VertexCover compose_vc_coresets(const std::vector<VcCoresetOutput>& coresets,
                                VertexId num_vertices, Rng& rng,
                                ThreadPool* pool) {
  VertexCover cover(num_vertices);
  const std::size_t k = coresets.size();
  for (const auto& c : coresets) {
    RCC_CHECK(c.residual_edges.num_vertices() == num_vertices);
    for (VertexId v : c.fixed_vertices) cover.insert(v);
  }
  // The coordinator knows the fixed sets; edges they already cover need no
  // further cover vertices. Two passes gather the rest in machine order:
  // count each machine's open edges, then copy them to that machine's
  // offset. Both passes only read the cover, so machines run in parallel.
  const auto is_open = [&cover](const Edge& e) {
    return !cover.contains(e.u) && !cover.contains(e.v);
  };
  std::vector<std::size_t> start(k + 1, 0);
  for_each_machine(pool, k, [&](std::size_t i) {
    std::size_t count = 0;
    for (const Edge& e : coresets[i].residual_edges) count += is_open(e);
    start[i + 1] = count;
  });
  for (std::size_t i = 0; i < k; ++i) start[i + 1] += start[i];
  std::vector<Edge> open(start[k]);
  for_each_machine(pool, k, [&](std::size_t i) {
    Edge* out = open.data() + start[i];
    for (const Edge& e : coresets[i].residual_edges) {
      if (is_open(e)) *out++ = e;
    }
  });
  cover_by_random_greedy(open, cover, rng);
  return cover;
}

GreedyMatchTrace greedy_match(const ShardedPartition<Edge>& parts,
                              const PartitionContext& base_ctx, Rng& rng) {
  GreedyMatchTrace trace;
  trace.matching = Matching(base_ctx.num_vertices);
  trace.step_sizes.reserve(parts.num_machines());
  for (std::size_t i = 0; i < parts.num_machines(); ++i) {
    const EdgeSpan piece = shard_span(parts, i);
    // "adding to M^(i-1) the edges in an arbitrary maximum matching of G(i)
    //  that do not violate the matching property" (Section 3.1). The paper
    // takes an arbitrary maximum matching; we take whatever the dispatcher
    // returns, scanned in random order so ties are not systematically biased.
    EdgeList mm = maximum_matching(piece, base_ctx.left_size).to_edge_list();
    std::vector<Edge> shuffled(mm.begin(), mm.end());
    rng.shuffle(shuffled);
    greedy_extend(trace.matching,
                  EdgeList(base_ctx.num_vertices, std::move(shuffled)));
    trace.step_sizes.push_back(trace.matching.size());
  }
  return trace;
}

}  // namespace rcc
