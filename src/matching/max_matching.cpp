#include "matching/max_matching.hpp"

#include "matching/blossom.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/warm_start.hpp"
#include "util/workspace.hpp"

namespace rcc {

namespace {

/// Runs solve(g) on the CSR of `edges`: a local graph, or the scratch's
/// graph slot, whose storage every solve over an edge view reuses.
template <typename Solve>
void on_graph(EdgeSpan edges, VertexId left_size, MachineScratch* scratch,
              const Solve& solve) {
  if (scratch == nullptr) {
    solve(Graph(edges, bipartition_if(left_size)));
    return;
  }
  Graph& g = scratch->state<Graph>();
  g.assign(edges, bipartition_if(left_size),
           &scratch->cursor(static_cast<std::size_t>(edges.num_vertices())));
  solve(g);
}

}  // namespace

void maximum_matching_into(Matching& out, const Graph& g,
                           MachineScratch* scratch) {
  if (g.is_bipartite_tagged()) {
    hopcroft_karp_into(out, g, scratch);
  } else {
    blossom_maximum_matching_into(out, g, scratch);
  }
}

Matching maximum_matching(const Graph& g, MachineScratch* scratch) {
  Matching result;
  maximum_matching_into(result, g, scratch);
  return result;
}

void maximum_matching_into(Matching& out, EdgeSpan edges, VertexId left_size,
                           MachineScratch* scratch) {
  on_graph(edges, left_size, scratch,
           [&](const Graph& g) { maximum_matching_into(out, g, scratch); });
}

Matching maximum_matching(EdgeSpan edges, VertexId left_size,
                          MachineScratch* scratch) {
  Matching result;
  maximum_matching_into(result, edges, left_size, scratch);
  return result;
}

void certified_maximum_matching_into(Matching& out, const Graph& g,
                                     MachineScratch* scratch) {
  std::size_t certificate = 0;
  karp_sipser_into(
      out, g, scratch != nullptr ? &scratch->state<KarpSipserScratch>() : nullptr,
      scratch != nullptr ? scratch->stats() : nullptr, &certificate);
  if (out.size() == certificate) return;
  // The seed fell short of its certificate, which the solver then uses as
  // its stop: once the matching reaches it, the remaining searches could
  // only fail.
  if (g.is_bipartite_tagged()) {
    hopcroft_karp_into(out, g, scratch, &out, certificate);
  } else {
    blossom_maximum_matching_into(out, g, scratch,
                                  /*prune_hungarian_trees=*/true, &out,
                                  certificate);
  }
}

void certified_maximum_matching_into(Matching& out, EdgeSpan edges,
                                     VertexId left_size,
                                     MachineScratch* scratch) {
  on_graph(edges, left_size, scratch, [&](const Graph& g) {
    certified_maximum_matching_into(out, g, scratch);
  });
}

std::size_t maximum_matching_size(EdgeSpan edges, VertexId left_size) {
  return maximum_matching(edges, left_size).size();
}

}  // namespace rcc
