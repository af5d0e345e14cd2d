// Maximum matching: the "ALG" of Theorem 1, in two policies.
//
// Theorem 1 states that *any* maximum matching of a piece is a valid
// coreset, and the coordinator may return any maximum matching of the
// union. Both solves here return a maximum matching; they differ in which
// one, and in how much work they skip:
//
//  * certified_maximum_matching_into — a Karp-Sipser seed with its core
//    certificate, an upper bound on the maximum (karp_sipser_into). A seed
//    that reaches the certificate is returned as is; otherwise the seed
//    warm-starts Hopcroft-Karp or blossom, which stop at the certificate.
//    The coreset machine builds (MaximumMatchingCoreset, SubsampledMatching-
//    Coreset) and the coordinator's union solve (union_maximum_matching_into)
//    run it; they differ only in how the CSR is built.
//  * maximum_matching_into — unseeded: Hopcroft-Karp when a bipartition tag
//    is available, Edmonds' blossom otherwise. Callers that depend on which
//    maximum matching they get keep it: the weighted class solves,
//    greedy_match and the mixed-solver ablation.
//
// Passing a MachineScratch routes the CSR build and the solver's O(n)
// working arrays through the round-persistent workspace, so repeated solves
// stop allocating once warm.
#pragma once

#include "graph/edge_list.hpp"
#include "graph/graph.hpp"
#include "matching/matching.hpp"

namespace rcc {

class MachineScratch;

/// Unseeded maximum matching of g (HK if bipartite-tagged, blossom
/// otherwise), written into `out` (reset internally).
void maximum_matching_into(Matching& out, const Graph& g,
                           MachineScratch* scratch = nullptr);
Matching maximum_matching(const Graph& g, MachineScratch* scratch = nullptr);

/// Convenience: builds the Graph from any edge view (EdgeList or a
/// partitioner shard — no copy either way), in the scratch when there is
/// one. If `left_size` is nonzero the edges are treated as bipartite with
/// that boundary.
void maximum_matching_into(Matching& out, EdgeSpan edges,
                           VertexId left_size = 0,
                           MachineScratch* scratch = nullptr);
Matching maximum_matching(EdgeSpan edges, VertexId left_size = 0,
                          MachineScratch* scratch = nullptr);

/// Certified maximum matching of g, written into `out`: the Karp-Sipser
/// seed, returned as is when it reaches its certificate, and otherwise
/// finished by a warm-started Hopcroft-Karp or blossom that stops at the
/// certificate. The solver's scratch is touched only on that fallback.
void certified_maximum_matching_into(Matching& out, const Graph& g,
                                     MachineScratch* scratch = nullptr);

/// A machine's piece solve: the certified solve over the CSR of `edges`
/// (bipartite with boundary `left_size` when nonzero), built as above.
void certified_maximum_matching_into(Matching& out, EdgeSpan edges,
                                     VertexId left_size = 0,
                                     MachineScratch* scratch = nullptr);

/// Maximum matching *size* only.
std::size_t maximum_matching_size(EdgeSpan edges, VertexId left_size = 0);

}  // namespace rcc
