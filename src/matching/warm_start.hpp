// The seed and the proof behind the certified maximum matching solve
// (certified_maximum_matching_into), for graphs whose maximum matching is
// almost found by local rules — coreset pieces and the coordinator's union
// of the machines' matchings:
//
//  * the seed: Karp-Sipser (Karp & Sipser, FOCS 1981). A vertex with one
//    live neighbor can always be matched to it without losing optimality,
//    so the seed applies that rule while it can and otherwise matches a
//    live vertex greedily, then keeps reducing. Only the greedy steps can
//    cost optimality, so few augmenting searches remain;
//  * the certificate: an upper bound on the maximum matching size, counted
//    on the seed's Karp-Sipser core (see karp_sipser_into). A matching
//    that reaches it is maximum, so an exact solver warm-started from the
//    seed may stop there and skip the failed searches that would only
//    prove maximality.
//
// Both come out of one O(n + m) call over a CSR graph whose working arrays
// can come from caller-owned scratch, so repeated solves allocate nothing
// once warm.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "matching/matching.hpp"

namespace rcc {

struct WorkspaceStats;

/// Working arrays of karp_sipser_into (garbage between calls).
struct KarpSipserScratch {
  std::vector<VertexId> live_degree;
  std::vector<VertexId> degree_one;
};

/// Karp-Sipser matching of g, written into `out` (reset internally). The
/// greedy step takes the lowest-id live vertex and matches it to its live
/// neighbor of least live degree, so the result is a deterministic function
/// of g's CSR layout. Parallel edges count with multiplicity and self-loops
/// are ignored. The result is a maximal matching of g.
///
/// `certificate` (optional) receives an upper bound on the maximum matching
/// size of g. The first time the degree-one queue empties, the seed has
/// made only degree-one matches M1, and each lies in some maximum matching
/// of the graph it was made in, so nu(g) = |M1| + nu(core), the core being
/// the live vertices of positive live degree. A core match takes two core
/// vertices, so the certificate is |M1| + floor(n_core / 2); on a
/// bipartite-tagged g it takes one core vertex of each side, so the
/// certificate is |M1| + min(|L & core|, |R & core|) (the tag is trusted, as
/// hopcroft_karp_into trusts it). One O(n) count over the live degrees
/// finds it. When the returned matching reaches it, the matching is maximum.
///
/// Each match checks Matching::match's precondition (distinct endpoints,
/// both unmatched) on the two live-degree entries the seed has just read —
/// a vertex is matched exactly when its entry is the taken mark — and
/// writes through Matching::match_unread, so no match reads a mate. The
/// check and the resulting matching are those of Matching::match.
void karp_sipser_into(Matching& out, const Graph& g,
                      KarpSipserScratch* scratch = nullptr,
                      WorkspaceStats* stats = nullptr,
                      std::size_t* certificate = nullptr);

}  // namespace rcc
