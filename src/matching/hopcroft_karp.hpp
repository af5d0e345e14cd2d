// Hopcroft-Karp maximum bipartite matching, O(m * sqrt(n)).
//
// This is the workhorse "any maximum matching algorithm" that machines run
// on their pieces for Theorem 1 when instances are bipartite (which all of
// the paper's hard distributions are). The O(n) working arrays can come
// from a caller-owned scratch so per-piece solves stop allocating once the
// workspace is warm.
#pragma once

#include "graph/graph.hpp"
#include "matching/matching.hpp"

namespace rcc {

class MachineScratch;

/// Maximum matching of a bipartition-tagged graph. Aborts if the graph has
/// no bipartition tag (use maximum_matching() to dispatch automatically).
/// `warm_start` (optional) seeds the solver with a valid matching of g
/// instead of the empty one. `size_bound` is a caller-proven upper bound on
/// the maximum matching size (e.g. the certificate of karp_sipser_into):
/// augmenting stops as soon as the matching reaches it, which skips the
/// searches that would only prove maximality. Neither changes the size of
/// the result.
Matching hopcroft_karp(const Graph& g, MachineScratch* scratch = nullptr,
                      const Matching* warm_start = nullptr,
                      std::size_t size_bound = kNoSizeBound);

/// As above, writing into a caller-reused Matching (reset internally).
/// `warm_start == &out` is allowed (the seed is read out first).
void hopcroft_karp_into(Matching& out, const Graph& g,
                        MachineScratch* scratch = nullptr,
                        const Matching* warm_start = nullptr,
                        std::size_t size_bound = kNoSizeBound);

}  // namespace rcc
