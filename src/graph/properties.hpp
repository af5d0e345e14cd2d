// Structural graph properties used by the experiments and the Appendix A
// reproduction.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/graph.hpp"

namespace rcc {

/// Number of connected components (isolated vertices count).
std::size_t connected_components(const Graph& g);

/// Degree histogram: hist[d] = number of vertices with degree d.
std::vector<std::size_t> degree_histogram(const Graph& g);

/// The *induced matching* of Section 4.1 / Lemma 4.1: the set of edges both
/// of whose endpoints have degree exactly one in the whole graph. By
/// construction these edges form a matching.
EdgeList induced_matching(EdgeSpan edges);

/// Count of vertices with degree exactly one among the first `prefix`
/// vertices (Proposition A.2(a) measures this on the left side).
std::size_t degree_one_count(const EdgeList& edges, VertexId prefix);

/// True if no two edges share an endpoint.
bool is_matching(const EdgeList& edges);

/// True if `cover` (as an indicator set) touches every edge.
bool covers_all_edges(const EdgeList& edges, const std::vector<bool>& cover);

/// Greedy check that the graph is 2-colorable; returns false on odd cycles.
bool is_bipartite(const Graph& g);

}  // namespace rcc
