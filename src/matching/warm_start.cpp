#include "matching/warm_start.hpp"

#include <algorithm>

#include "util/workspace.hpp"

namespace rcc {

namespace {

/// karp_sipser_into's mark for a matched vertex in the live-degree array.
constexpr VertexId kTaken = kInvalidVertex;

/// The number of core vertices in [from, to): live (not kTaken) and of
/// positive live degree. One branch-free sequential scan.
std::size_t count_core(const VertexId* live, VertexId from, VertexId to) {
  std::size_t count = 0;
  for (VertexId v = from; v < to; ++v) count += live[v] - 1 < kTaken - 1;
  return count;
}

}  // namespace

void karp_sipser_into(Matching& out, const Graph& g, KarpSipserScratch* scratch,
                      WorkspaceStats* stats, std::size_t* certificate) {
  const VertexId n = g.num_vertices();
  KarpSipserScratch local;
  KarpSipserScratch& s = scratch != nullptr ? *scratch : local;
  // One word per vertex: its live degree (edges to unmatched vertices,
  // self-loops excluded), or kTaken once it is matched. The hot loops then
  // read one array per neighbor instead of a mate and a degree.
  VertexId* const live = workspace_detail::sized(s.live_degree, n, stats).data();
  // Every vertex enters the queue at most once (live degrees only fall, so
  // each reaches one at most once); the extra slot takes the unconditional
  // store of the branch-free push below.
  VertexId* const queue =
      workspace_detail::sized(s.degree_one, std::size_t{n} + 1, stats).data();
  std::size_t tail = 0;
  const std::size_t* const off = g.offsets_data();
  const VertexId* const adj = g.adjacency_data();
  // A live degree is at most m, so below this bound none reads as kTaken.
  RCC_CHECK(g.num_edges() < kTaken);

  out.reset(n);
  if (g.num_self_loops() == 0) {
    // Without self-loops a vertex's live degree starts as its row length.
    for (VertexId v = 0; v < n; ++v) {
      const auto d = static_cast<VertexId>(off[v + 1] - off[v]);
      live[v] = d;
      queue[tail] = v;
      tail += d == 1;
    }
  } else {
    for (VertexId v = 0; v < n; ++v) {
      VertexId d = 0;
      for (std::size_t i = off[v]; i < off[v + 1]; ++i) d += adj[i] != v;
      live[v] = d;
      queue[tail] = v;
      tail += d == 1;
    }
  }

  // Matching a and b removes them from their neighbors' live degrees; a
  // vertex whose live degree falls to one joins the queue. The update is
  // branch-free: whether a neighbor is live is a coin flip to the branch
  // predictor, and this loop is most of the seed's time. Matching::match's
  // endpoint check is made on live[], which every caller has just read (a
  // vertex is unmatched exactly when it is not kTaken).
  const auto take = [&](VertexId a, VertexId b) {
    RCC_CHECK(a != b && live[a] != kTaken && live[b] != kTaken);
    out.match_unread(a, b);
    live[a] = kTaken;
    live[b] = kTaken;
    for (const VertexId x : {a, b}) {
      for (std::size_t i = off[x]; i < off[x + 1]; ++i) {
        const VertexId y = adj[i];
        const bool alive = live[y] != kTaken;
        const VertexId d = live[y] - alive;
        live[y] = d;
        queue[tail] = y;
        tail += alive & (d == 1);
      }
    }
  };

  std::size_t head = 0;
  VertexId next = 0;  // greedy cursor: every vertex below is matched or dead
  for (;;) {
    // Degree-one reductions: matching a vertex to its only live neighbor
    // never costs optimality.
    while (head < tail) {
      const VertexId v = queue[head++];
      if (live[v] == kTaken) continue;
      for (std::size_t i = off[v]; i < off[v + 1]; ++i) {
        const VertexId w = adj[i];
        if (w != v && live[w] != kTaken) {
          take(v, w);
          break;
        }
      }
    }
    while (next < n && (live[next] == kTaken || live[next] == 0)) ++next;
    if (certificate != nullptr) {
      // First stall: every match so far was a degree-one reduction, and
      // every vertex below `next` is matched or dead. A core match takes
      // two core vertices, one from each side when g is bipartite-tagged.
      std::size_t core_matches = 0;
      if (const auto& sides = g.bipartition()) {
        const VertexId split = std::clamp(sides->left_size, next, n);
        core_matches = std::min(count_core(live, next, split),
                                count_core(live, split, n));
      } else {
        core_matches = count_core(live, next, n) / 2;
      }
      *certificate = out.size() + core_matches;
      certificate = nullptr;
    }
    if (next == n) break;
    // Greedy step: the live neighbor with the fewest live neighbors of its
    // own is the one whose other edges are least likely to be needed.
    VertexId best = kInvalidVertex;
    VertexId best_degree = kTaken;
    for (std::size_t i = off[next]; i < off[next + 1]; ++i) {
      const VertexId w = adj[i];
      if (w != next && live[w] < best_degree) {
        best = w;
        best_degree = live[w];
      }
    }
    take(next, best);
  }
}

}  // namespace rcc
