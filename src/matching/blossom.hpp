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
//
// One search routine serves two root policies. An unseeded solve grows one
// tree at a time, from each free vertex in id order. A warm-started solve
// finishes with a forest search: each pass grows the trees of every free
// vertex of positive degree over one BFS queue, and stops at the first edge
// joining even vertices of two different trees; both halves of that path
// are flipped, and only the touched entries are undone for the next pass. A
// pass that finds no path proves the matching maximum, so no tree is ever
// buried. A pass pays for every tree, which is cheap only when few vertices
// are free. After a Karp-Sipser seed of a coreset union (gnm n = 80k,
// m = 640k, k = 8; 2-6 augmentations left) the forest finish took 0.6 ms
// per union where one search per free vertex took 2-13 ms. On a piece whose
// seed misses its certificate (gnm n = 80k, m = 120k-240k; 3-4
// augmentations, 16-1.8k free vertices) it took 0.6-2.8 ms against
// 3.6-5.9 ms. It loses where thousands of free vertices can never augment
// and the certificate is out of reach: next to 6,666 K_{2,4} cores (14k
// free vertices, a final failed pass) it took 4.8-6.1 ms against
// 3.5-3.9 ms. After the greedy initialization, which leaves ~25k free
// vertices on a gnm n = m = 80k graph, restarting the forest per
// augmentation took 1.6 s against 4.9 ms for single-root searches with
// Hungarian pruning, so unseeded solves keep one root, and their searches
// neither write nor compare tree ids.
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
  std::vector<VertexId> tree;  // forest passes: each labelled vertex's root
  std::vector<VertexId> roots;  // free vertices a forest pass grows from
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
/// of g instead of the greedy initialization pass, and finishes with the
/// forest search (all free vertices' trees per pass). Precondition for
/// speed, not correctness: the seed leaves few free vertices (a
/// Karp-Sipser seed does); every pass costs the whole forest, so a seed
/// with thousands of free vertices is far slower than no seed. Hungarian
/// pruning has no effect on a warm-started solve. `size_bound` is a
/// caller-proven upper bound on the maximum matching size (e.g. the
/// certificate of karp_sipser_into): augmenting stops once the matching
/// reaches it, which skips the failed searches that would only prove
/// maximality.
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
