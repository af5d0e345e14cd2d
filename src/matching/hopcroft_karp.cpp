#include "matching/hopcroft_karp.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/workspace.hpp"

namespace rcc {

namespace {
constexpr VertexId kInf = std::numeric_limits<VertexId>::max();

/// Reusable working set of the HK solver (contents are garbage between
/// calls; only capacity persists).
struct HkScratch {
  std::vector<VertexId> mate;
  std::vector<VertexId> dist;
  std::vector<VertexId> queue;
  std::vector<VertexId> active;  // left vertices with degree > 0
  // The layered DFS's explicit stack: left vertex and next row position of
  // every frame. An augmenting path has one frame per BFS layer, and a
  // warm start leaves few, long paths — a recursion per layer would
  // overflow a thread stack.
  std::vector<VertexId> stack_vertex;
  std::vector<std::size_t> stack_pos;
};

}  // namespace

void hopcroft_karp_into(Matching& out, const Graph& g, MachineScratch* scratch,
                        const Matching* warm_start, std::size_t size_bound) {
  RCC_CHECK(g.is_bipartite_tagged());
  const VertexId n = g.num_vertices();
  const VertexId nL = g.bipartition()->left_size;

  HkScratch local;
  HkScratch& hk = scratch != nullptr ? scratch->state<HkScratch>() : local;
  WorkspaceStats* stats = scratch != nullptr ? scratch->stats() : nullptr;
  workspace_detail::sized(hk.mate, n, stats);
  workspace_detail::sized(hk.dist, nL, stats);
  std::size_t size = 0;
  if (warm_start != nullptr) {
    // Seed from the caller's matching (read before out.reset — the caller
    // may pass &out). Validity of the seed is the caller's contract.
    RCC_CHECK(warm_start->num_vertices() == n);
    std::copy(warm_start->mate_data(), warm_start->mate_data() + n,
              hk.mate.begin());
    size = warm_start->size();
  } else {
    std::fill(hk.mate.begin(), hk.mate.end(), kInvalidVertex);
  }
  hk.queue.clear();
  workspace_detail::reserved(hk.queue, nL, stats);
  VertexId* const mate = hk.mate.data();
  VertexId* const dist = hk.dist.data();
  std::vector<VertexId>& queue = hk.queue;
  const std::size_t* const goff = g.offsets_data();
  const VertexId* const gadj = g.adjacency_data();

  // Active-left list, built once per solve: an isolated left vertex can
  // never be matched and its BFS/DFS visits are no-ops (it scans an empty
  // row and writes dist entries nothing reads), so skipping it per phase is
  // result-identical. On a random O(m/k)-size shard most of the left side
  // is isolated, which turns the per-phase O(nL) sweeps into O(active).
  hk.active.clear();
  workspace_detail::reserved(hk.active, nL, stats);
  for (VertexId u = 0; u < nL; ++u) {
    if (goff[u + 1] > goff[u]) hk.active.push_back(u);
  }
  const std::vector<VertexId>& active = hk.active;

  // BFS layers from unmatched left vertices; returns true if some unmatched
  // right vertex is reachable (i.e. an augmenting path exists).
  auto bfs = [&]() -> bool {
    queue.clear();
    for (const VertexId u : active) {
      if (mate[u] == kInvalidVertex) {
        dist[u] = 0;
        queue.push_back(u);
      } else {
        dist[u] = kInf;
      }
    }
    bool found = false;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const VertexId u = queue[head];
      const std::size_t row_end = goff[u + 1];
      for (std::size_t i = goff[u]; i < row_end; ++i) {
        const VertexId next = mate[gadj[i]];
        if (next == kInvalidVertex) {
          found = true;
        } else if (dist[next] == kInf) {
          dist[next] = dist[u] + 1;
          queue.push_back(next);
        }
      }
    }
    return found;
  };

  // DFS along layered edges from `root`, flipping matched/unmatched status
  // on success. Iterative, visiting rows in the order the recursive
  // formulation does: a frame scans its row from stack_pos; an edge to a
  // free right vertex ends the path, an edge into the next layer pushes a
  // frame, and an exhausted row retires its vertex (dist = kInf) and moves
  // the parent past the edge that led to it.
  std::vector<VertexId>& sv = hk.stack_vertex;
  std::vector<std::size_t>& sp = hk.stack_pos;
  auto dfs = [&](VertexId root) -> bool {
    sv.clear();
    sp.clear();
    sv.push_back(root);
    sp.push_back(goff[root]);
    while (!sv.empty()) {
      const VertexId u = sv.back();
      const std::size_t i = sp.back();
      if (i == goff[u + 1]) {
        dist[u] = kInf;
        sv.pop_back();
        sp.pop_back();
        if (!sp.empty()) ++sp.back();
        continue;
      }
      const VertexId next = mate[gadj[i]];
      if (next == kInvalidVertex) {
        // Flip the path: every frame matches its vertex to the right
        // vertex its row position points at (the pairs are disjoint, so
        // the order of the writes does not matter).
        for (std::size_t f = 0; f < sv.size(); ++f) {
          const VertexId left = sv[f];
          const VertexId right = gadj[sp[f]];
          mate[left] = right;
          mate[right] = left;
        }
        return true;
      }
      if (dist[next] == dist[u] + 1) {
        sv.push_back(next);
        sp.push_back(goff[next]);
      } else {
        ++sp.back();
      }
    }
    return false;
  };

  // A caller-proven upper bound on the maximum ends the solve as soon as
  // the matching reaches it: the searches that would only prove maximality
  // are skipped, and the matching returned is the same maximum size.
  while (size < size_bound && bfs()) {
    for (const VertexId u : active) {
      if (mate[u] == kInvalidVertex && dfs(u) && ++size == size_bound) break;
    }
  }

  out.reset(n);
  for (const VertexId u : active) {
    if (mate[u] != kInvalidVertex) out.match(u, mate[u]);
  }
}

Matching hopcroft_karp(const Graph& g, MachineScratch* scratch,
                       const Matching* warm_start, std::size_t size_bound) {
  Matching result;
  hopcroft_karp_into(result, g, scratch, warm_start, size_bound);
  return result;
}

}  // namespace rcc
