#include "coreset/compose.hpp"

#include "matching/greedy.hpp"
#include "matching/max_matching.hpp"
#include "vertex_cover/approx.hpp"

namespace rcc {

Matching compose_matching_coresets(const std::vector<EdgeList>& coresets,
                                   ComposeSolver solver, VertexId left_size,
                                   Rng& rng) {
  EdgeList all = EdgeList::union_of(coresets);
  if (solver == ComposeSolver::kMaximum) {
    return maximum_matching(all, left_size);
  }
  return greedy_maximal_matching(all, GreedyOrder::kRandom, rng);
}

VertexCover compose_vc_coresets(const std::vector<VcCoresetOutput>& coresets,
                                VertexId num_vertices, Rng& rng) {
  VertexCover cover(num_vertices);
  std::size_t total = 0;
  for (const auto& c : coresets) {
    RCC_CHECK(c.residual_edges.num_vertices() == num_vertices);
    for (VertexId v : c.fixed_vertices) cover.insert(v);
    total += c.residual_edges.num_edges();
  }
  // The coordinator knows the fixed sets; edges they already cover need no
  // further cover vertices. One pass gathers the rest, in machine order.
  std::vector<Edge> open;
  open.reserve(total);
  for (const auto& c : coresets) {
    for (const Edge& e : c.residual_edges) {
      if (!cover.contains(e.u) && !cover.contains(e.v)) open.push_back(e);
    }
  }
  cover_by_random_greedy(open, cover, rng);
  return cover;
}

GreedyMatchTrace greedy_match(const std::vector<EdgeList>& pieces,
                              const PartitionContext& base_ctx, Rng& rng) {
  GreedyMatchTrace trace;
  trace.matching = Matching(base_ctx.num_vertices);
  trace.step_sizes.reserve(pieces.size());
  for (const EdgeList& piece : pieces) {
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
