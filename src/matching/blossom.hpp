// Edmonds' blossom algorithm: maximum matching in general graphs.
//
// Theorem 1 holds for general (not just bipartite) graphs, so the library
// needs a maximum matching routine without a bipartiteness assumption. This
// is the classical contraction implementation with a greedy initialization
// pass and two perf refinements that matter for the coreset workloads:
//
//  * Hungarian-tree pruning — when the search from a free vertex fails, its
//    alternating tree is "frustrated": no augmenting path (now or after any
//    later augmentation) passes through any of its vertices, so the whole
//    tree is marked dead and never explored again (Galil, ACM Computing
//    Surveys 1986, Section on Edmonds' algorithm). Without this, the union
//    of k near-perfect shard matchings — exactly what the coreset
//    coordinator solves every round — degenerates to Theta(f * m) for f
//    failed searches; with it the total failed-search work is O(m).
//  * scratch reuse — all O(n) working arrays can live in a caller-owned
//    BlossomScratch (stashed in a MachineScratch workspace slot), so
//    repeated solves allocate nothing once warm.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "matching/matching.hpp"

namespace rcc {

class MachineScratch;

/// Reusable working set of the blossom solver (one per thread/scratch).
/// Contents between calls are garbage; only capacity persists.
struct BlossomScratch {
  std::vector<VertexId> mate;
  std::vector<VertexId> parent;
  std::vector<VertexId> base;  // union-find forest of blossom bases
  std::vector<VertexId> queue;
  std::vector<VertexId> touched;
  std::vector<VertexId> path_marked;
  std::vector<VertexId> merged;  // bases one contraction unions
  std::vector<char> used;
  std::vector<char> on_path;
  std::vector<char> dead;
};

/// Maximum matching of an arbitrary simple graph. `scratch` (optional)
/// provides the reusable working arrays; `prune_hungarian_trees` exists so
/// differential tests can pit the pruned search against the exhaustive one
/// (both are exact; pruning only skips provably dead exploration).
/// `warm_start` (optional) seeds the solver with an existing valid matching
/// of g instead of the greedy initialization pass — every tree search costs
/// Omega(explored component), so entering with a near-maximum matching
/// (e.g. a Karp-Sipser seed) removes most searches. `size_bound` is a
/// caller-proven upper bound on the maximum matching size (e.g.
/// tutte_berge_bound): augmenting stops once the matching reaches it, which
/// skips the failed searches that would only prove maximality.
Matching blossom_maximum_matching(const Graph& g,
                                  MachineScratch* scratch = nullptr,
                                  bool prune_hungarian_trees = true,
                                  const Matching* warm_start = nullptr,
                                  std::size_t size_bound = kNoSizeBound);

/// As above, writing into a caller-reused Matching (reset internally).
/// `warm_start == &out` is allowed (the seed is read out first).
void blossom_maximum_matching_into(Matching& out, const Graph& g,
                                   MachineScratch* scratch = nullptr,
                                   bool prune_hungarian_trees = true,
                                   const Matching* warm_start = nullptr,
                                   std::size_t size_bound = kNoSizeBound);

}  // namespace rcc
