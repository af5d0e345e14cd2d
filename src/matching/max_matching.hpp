// Maximum matching dispatcher: the "ALG" of Theorem 1.
//
// Theorem 1 states that *any* maximum matching of a piece is a valid
// coreset, independent of the algorithm computing it; this dispatcher picks
// Hopcroft-Karp when a bipartition tag is available and Edmonds' blossom
// otherwise, so callers never care which one ran. Passing a MachineScratch
// routes the CSR build and the solver's O(n) working arrays through the
// round-persistent workspace, so per-piece solves stop allocating once warm.
//
// The coreset machine builds (MaximumMatchingCoreset, SubsampledMatching-
// Coreset) call piece_maximum_matching_into instead: a Karp-Sipser seed
// that certifies itself on sparse pieces, with the exact solver as a
// fallback. It returns a maximum matching of the same size but, in
// general, not the same one. The dispatcher stays unseeded because other
// callers depend on which maximum matching it returns: the EDCS fold's
// survivors follow from its round-0 matching, and mpc_edcs_test pins that
// run's output.
#pragma once

#include "graph/edge_list.hpp"
#include "graph/graph.hpp"
#include "matching/matching.hpp"

namespace rcc {

class MachineScratch;

/// Maximum matching of g (HK if bipartite-tagged, blossom otherwise).
Matching maximum_matching(const Graph& g, MachineScratch* scratch = nullptr);

/// Convenience: builds the Graph internally from any edge view (EdgeList or
/// a partitioner shard — no copy either way). If `left_size` is nonzero the
/// edges are treated as bipartite with that boundary.
Matching maximum_matching(EdgeSpan edges, VertexId left_size = 0,
                          MachineScratch* scratch = nullptr);

/// As above, writing into a caller-reused Matching (reset internally) — the
/// zero-allocation shape for folds that solve one union per round.
void maximum_matching_into(Matching& out, EdgeSpan edges,
                           VertexId left_size = 0,
                           MachineScratch* scratch = nullptr);

/// A machine's piece solve: a maximum matching of `edges` (bipartite with
/// boundary `left_size` when nonzero), written into `out`. Builds the CSR in
/// the scratch and runs karp_sipser_into with its certificate; a seed that
/// reaches the certificate is returned as is, otherwise it warm-starts
/// Hopcroft-Karp or blossom, which stop at the certificate. The solver's
/// scratch is touched only on that fallback.
void piece_maximum_matching_into(Matching& out, EdgeSpan edges,
                                 VertexId left_size = 0,
                                 MachineScratch* scratch = nullptr);

/// Maximum matching *size* only.
std::size_t maximum_matching_size(EdgeSpan edges, VertexId left_size = 0);

}  // namespace rcc
