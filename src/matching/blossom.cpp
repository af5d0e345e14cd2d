#include "matching/blossom.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "util/workspace.hpp"

namespace rcc {

namespace {

/// Working state shared across augmentation searches.
///
/// The classical contraction algorithm resets O(n) state before every search;
/// on sparse graphs with many isolated or quickly-settled vertices that makes
/// the whole run quadratic. Instead we log every vertex a search modifies in
/// `touched` and undo only those entries at the next search, so one search
/// costs O(size of the explored component) (plus contraction work).
///
/// Contraction bookkeeping: `base` is a union-find forest (path halving).
/// The textbook implementation re-scans every explored vertex per blossom
/// event to re-base the contracted set — O(tree size) per event, which on
/// the coreset coordinator's union-of-matchings workload measured 1000x the
/// BFS cost itself (3.6e8 rebase steps against 3e5 edge visits). Contracting
/// through the DSU touches only the two blossom paths: the swallowed bases
/// are unioned into the new base, and the only vertices that newly become
/// even are the odd path vertices themselves (anything else based inside the
/// blossom was already even when its own blossom formed), so they are
/// enqueued right on the path walk.
///
/// The arrays themselves live in a BlossomScratch so repeated solves reuse
/// their capacity; per-call initialization is plain O(n) fills (no heap
/// traffic once warm).
struct BlossomState {
  const Graph& g;
  BlossomScratch& s;
  const bool prune;

  BlossomState(const Graph& graph, BlossomScratch& scratch, bool prune_trees,
               WorkspaceStats* stats)
      : g(graph), s(scratch), prune(prune_trees) {
    const std::size_t n = graph.num_vertices();
    workspace_detail::sized(s.mate, n, stats);
    workspace_detail::sized(s.parent, n, stats);
    workspace_detail::sized(s.base, n, stats);
    workspace_detail::sized(s.tree, n, stats);
    workspace_detail::sized(s.used, n, stats);
    workspace_detail::sized(s.on_path, n, stats);
    workspace_detail::sized(s.dead, n, stats);
    std::fill(s.mate.begin(), s.mate.end(), kInvalidVertex);
    std::fill(s.parent.begin(), s.parent.end(), kInvalidVertex);
    for (VertexId v = 0; v < graph.num_vertices(); ++v) s.base[v] = v;
    std::fill(s.used.begin(), s.used.end(), char{0});
    std::fill(s.on_path.begin(), s.on_path.end(), char{0});
    std::fill(s.dead.begin(), s.dead.end(), char{0});
    s.queue.clear();
    s.touched.clear();
    s.path_marked.clear();
    s.merged.clear();
  }

  void touch(VertexId v) { s.touched.push_back(v); }

  void reset_search_state() {
    for (VertexId v : s.touched) {
      s.parent[v] = kInvalidVertex;
      s.used[v] = 0;
      s.base[v] = v;
    }
    s.touched.clear();
  }

  /// Current blossom base of v: union-find root with path halving. Every
  /// vertex whose DSU entry deviates from self is on a compressed chain of
  /// touched vertices, so the touched-undo in reset_search_state() restores
  /// the forest exactly.
  VertexId find(VertexId v) {
    while (s.base[v] != v) {
      s.base[v] = s.base[s.base[v]];
      v = s.base[v];
    }
    return v;
  }

  /// The search from the last root failed: its alternating tree is a
  /// Hungarian tree — no augmenting path will ever pass through any of its
  /// vertices (failed searches are exhaustive, and augmentations elsewhere
  /// cannot revive them), so the tree is removed from the graph for good.
  void bury_failed_tree() {
    for (VertexId v : s.touched) s.dead[v] = 1;
  }

  /// Lowest common ancestor of the bases of a and b in the alternating tree.
  VertexId lca(VertexId a, VertexId b) {
    s.path_marked.clear();
    VertexId x = a;
    for (;;) {
      x = find(x);
      s.on_path[x] = 1;
      s.path_marked.push_back(x);
      if (s.mate[x] == kInvalidVertex) break;  // reached the tree root
      x = s.parent[s.mate[x]];
    }
    VertexId y = b;
    for (;;) {
      y = find(y);
      if (s.on_path[y]) break;
      y = s.parent[s.mate[y]];
    }
    for (VertexId v : s.path_marked) s.on_path[v] = 0;
    return y;
  }

  /// Contracts the blossom branch from v up to base b into b: tree edges
  /// along the branch are re-pointed across the odd cycle (`child` is the
  /// vertex on the other branch that v's tree edge should point to), odd
  /// path vertices become even and are enqueued, and the bases the branch
  /// passes are unioned into b once the walk is done. The walk must reach
  /// b through the bases as they were before this contraction: when v sits
  /// inside an earlier sub-blossom, the walk has to re-point every tree
  /// edge on its way out of it, and a union made mid-walk would end the
  /// walk inside the sub-blossom and leave stale tree edges there (an
  /// augment along them can cycle forever).
  void mark_path(VertexId v, VertexId b, VertexId child) {
    s.merged.clear();
    for (VertexId bv = find(v); bv != b; bv = find(v)) {
      const VertexId mv = s.mate[v];
      s.merged.push_back(bv);        // the even base on the branch
      s.merged.push_back(find(mv));  // and the odd side (its own base, or
                                     // an earlier blossom's — whose
                                     // members are already even)
      if (!s.used[mv]) {
        // The only vertices a contraction newly exposes as even are the odd
        // path vertices; everything else based inside the blossom became
        // even when its own blossom formed.
        s.used[mv] = 1;
        touch(mv);
        s.queue.push_back(mv);
      }
      s.parent[v] = child;
      touch(v);
      child = mv;
      v = s.parent[mv];
    }
    for (VertexId root : s.merged) s.base[root] = b;
  }

  /// Grows alternating trees from every vertex of `roots` at once, over one
  /// BFS queue; `tree` names the root of each labelled vertex and `used`
  /// marks the even ones. An edge between even vertices of one tree closes
  /// a blossom, which is contracted. The first edge from an even vertex to
  /// an even vertex of another tree, or to a free unlabelled vertex (the
  /// only way a single-root search ends), closes an augmenting path: both
  /// halves are flipped and the search returns true. False means no
  /// augmenting path starts at any root. With `kForest` off there is one
  /// root and one tree, so the tree ids are neither written nor compared:
  /// the unseeded solve runs one search per free vertex and pays nothing
  /// for the forest's bookkeeping.
  template <bool kForest>
  bool augment_from(std::span<const VertexId> roots) {
    reset_search_state();
    s.queue.clear();
    for (VertexId root : roots) {
      s.used[root] = 1;
      if constexpr (kForest) s.tree[root] = root;
      touch(root);
      s.queue.push_back(root);
    }
    for (std::size_t head = 0; head < s.queue.size(); ++head) {
      const VertexId v = s.queue[head];
      for (VertexId to : g.neighbors(v)) {
        if (prune && s.dead[to]) continue;  // buried Hungarian tree
        if (find(v) == find(to) || s.mate[v] == to) continue;
        if (s.used[to] && (!kForest || s.tree[to] == s.tree[v])) {
          // Odd cycle: contract the blossom rooted at lca(v, to) by
          // unioning both branches' bases into it (mark_path also enqueues
          // the odd path vertices that just became even).
          const VertexId cur_base = lca(v, to);
          mark_path(v, cur_base, to);
          mark_path(to, cur_base, v);
        } else if (s.used[to] || (s.parent[to] == kInvalidVertex &&
                                  s.mate[to] == kInvalidVertex)) {
          flip_side(v, to);
          flip_side(to, v);
          return true;
        } else if (s.parent[to] == kInvalidVertex) {
          const VertexId mt = s.mate[to];
          s.parent[to] = v;
          if constexpr (kForest) s.tree[to] = s.tree[mt] = s.tree[v];
          touch(to);
          s.used[mt] = 1;
          touch(mt);
          s.queue.push_back(mt);
        }
      }
    }
    return false;
  }

  /// Matches x to y and flips the tree path from x back to its root: x's
  /// old mate w takes w's tree parent, whose old mate continues, up to the
  /// free root. A free x (a root, or a single-root path's free end) just
  /// takes y.
  void flip_side(VertexId x, VertexId y) {
    for (;;) {
      const VertexId w = s.mate[x];
      s.mate[x] = y;
      if (w == kInvalidVertex) return;
      x = s.parent[w];
      s.mate[w] = x;
      y = w;
    }
  }
};

}  // namespace

void blossom_maximum_matching_into(Matching& out, const Graph& g,
                                   MachineScratch* scratch,
                                   bool prune_hungarian_trees,
                                   const Matching* warm_start,
                                   std::size_t size_bound) {
  BlossomScratch local;
  BlossomScratch& bs =
      scratch != nullptr ? scratch->state<BlossomScratch>() : local;
  WorkspaceStats* const stats =
      scratch != nullptr ? scratch->stats() : nullptr;
  BlossomState st(g, bs, prune_hungarian_trees, stats);

  std::size_t size = 0;
  if (warm_start != nullptr) {
    // Seed from the caller's matching (read before out.reset — the caller
    // may pass &out). Validity of the seed is the caller's contract.
    RCC_CHECK(warm_start->num_vertices() == g.num_vertices());
    std::copy(warm_start->mate_data(),
              warm_start->mate_data() + g.num_vertices(), bs.mate.begin());
    size = warm_start->size();
  } else {
    // Greedy initialization: removes most augmentation phases on random
    // graphs.
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (bs.mate[v] != kInvalidVertex) continue;
      for (VertexId w : g.neighbors(v)) {
        if (bs.mate[w] == kInvalidVertex && w != v) {
          bs.mate[v] = w;
          bs.mate[w] = v;
          ++size;
          break;
        }
      }
    }
  }

  // Once the matching reaches the caller's upper bound it is maximum: the
  // remaining searches could only fail.
  if (warm_start != nullptr) {
    // Forest finish: every pass grows all free vertices' trees at once, and
    // a pass that finds no augmenting path proves the matching maximum.
    workspace_detail::reserved(bs.roots, g.num_vertices(), stats);
    bs.roots.clear();
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (bs.mate[v] == kInvalidVertex && g.degree(v) > 0) {
        bs.roots.push_back(v);
      }
    }
    while (size < size_bound && st.augment_from<true>(bs.roots)) {
      ++size;
      std::erase_if(bs.roots,
                    [&](VertexId v) { return bs.mate[v] != kInvalidVertex; });
    }
  } else {
    for (VertexId v = 0; v < g.num_vertices() && size < size_bound; ++v) {
      if (bs.mate[v] != kInvalidVertex || g.degree(v) == 0) continue;
      if (st.augment_from<false>(std::span<const VertexId>(&v, 1))) {
        ++size;
      } else if (prune_hungarian_trees) {
        st.bury_failed_tree();
      }
    }
  }

  out.reset(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (bs.mate[v] != kInvalidVertex && v < bs.mate[v]) {
      out.match(v, bs.mate[v]);
    }
  }
}

Matching blossom_maximum_matching(const Graph& g, MachineScratch* scratch,
                                  bool prune_hungarian_trees,
                                  const Matching* warm_start,
                                  std::size_t size_bound) {
  Matching result;
  blossom_maximum_matching_into(result, g, scratch, prune_hungarian_trees,
                                warm_start, size_bound);
  return result;
}

}  // namespace rcc
