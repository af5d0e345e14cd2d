// What an exact matching solver needs to skip most of its work on a graph
// whose maximum matching is almost found by local rules — the union of the
// machines' matchings that the coreset coordinator solves:
//
//  * a seed: Karp-Sipser (Karp & Sipser, FOCS 1981). A vertex with one live
//    neighbor can always be matched to it without losing optimality, so the
//    seed applies that rule while it can and otherwise matches a live
//    vertex greedily, then keeps reducing. Only the greedy steps can cost
//    optimality, so few augmenting searches remain;
//  * a stop: the Tutte-Berge formula with S = {} bounds every matching by
//    (n - odd(G)) / 2, odd(G) the number of odd-size connected components
//    (isolated vertices included). A matching of that size is maximum, so
//    a solver that reaches it may skip the failed searches that would only
//    prove maximality.
//
// Both are O(n + m) passes over a CSR graph; their working arrays can come
// from caller-owned scratch, so repeated solves allocate nothing once warm.
// The seed can also certify itself (the bound on its Karp-Sipser core, see
// karp_sipser_into), which lets a sparse piece skip the exact solver.
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

/// Working arrays of tutte_berge_bound (garbage between calls).
struct ComponentScratch {
  std::vector<char> seen;
  std::vector<VertexId> queue;
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
/// the live vertices of positive live degree. The certificate is |M1| +
/// (n_core - #odd components of the core) / 2: Tutte-Berge with S = {} on
/// the core, never looser than tutte_berge_bound(g). When the returned
/// matching reaches it, the matching is maximum.
void karp_sipser_into(Matching& out, const Graph& g,
                      KarpSipserScratch* scratch = nullptr,
                      WorkspaceStats* stats = nullptr,
                      std::size_t* certificate = nullptr);

/// (n - number of odd-size connected components) / 2: an upper bound on
/// the maximum matching size of g, tight on most random unions of
/// matchings.
std::size_t tutte_berge_bound(const Graph& g,
                              ComponentScratch* scratch = nullptr,
                              WorkspaceStats* stats = nullptr);

}  // namespace rcc
