#include "matching/warm_start.hpp"

#include "util/workspace.hpp"

namespace rcc {

namespace {

/// karp_sipser_into's mark for a matched vertex in the live-degree array.
constexpr VertexId kTaken = kInvalidVertex;
/// The core walk's visited mark: the top bit of a live degree.
constexpr VertexId kSeen = VertexId{1} << 31;

/// The Tutte-Berge bound with S = {} of the Karp-Sipser core: the live
/// vertices of positive live degree (vertices below `from` are all matched
/// or isolated). Returns (n_core - #odd components of the core) / 2. The
/// walk marks a visited vertex with the top bit of its live degree, runs
/// its breadth-first search in `queue` (every core vertex enters once, so
/// n slots suffice), and clears the marks before it returns.
std::size_t core_bound(VertexId* live, VertexId* queue, VertexId from,
                       VertexId n, const std::size_t* off,
                       const VertexId* adj) {
  std::size_t tail = 0;
  std::size_t odd = 0;
  for (VertexId root = from; root < n; ++root) {
    const VertexId d = live[root];
    if (d == kTaken || d == 0 || (d & kSeen) != 0) continue;
    live[root] = d | kSeen;
    const std::size_t start = tail;
    queue[tail++] = root;
    for (std::size_t head = start; head < tail; ++head) {
      const VertexId v = queue[head];
      for (std::size_t i = off[v]; i < off[v + 1]; ++i) {
        // A live neighbor of a core vertex is in the core; self-loops
        // find v already marked.
        const VertexId w = adj[i];
        const VertexId dw = live[w];
        if (dw == kTaken || (dw & kSeen) != 0) continue;
        live[w] = dw | kSeen;
        queue[tail++] = w;
      }
    }
    odd += (tail - start) & 1;
  }
  for (std::size_t i = 0; i < tail; ++i) live[queue[i]] &= ~kSeen;
  return (tail - odd) / 2;
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
  // A live degree is at most m: below that bound, a marked degree can
  // neither carry a real top bit nor read as kTaken.
  if (certificate != nullptr) RCC_CHECK(g.num_edges() < kSeen - 1);

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
  // predictor, and this loop is most of the seed's time.
  const auto take = [&](VertexId a, VertexId b) {
    out.match(a, b);
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
      // the degree-one queue is empty, so the core walk may borrow it.
      *certificate = out.size() + core_bound(live, queue, next, n, off, adj);
      certificate = nullptr;
      head = 0;
      tail = 0;
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
