#include "evidence/contrast/connectivity_coreset.hpp"

#include <limits>
#include <queue>

#include "evidence/util/dsu.hpp"
#include "graph/graph.hpp"

namespace rcc {

EdgeList spanning_forest(EdgeSpan edges) {
  Dsu dsu(edges.num_vertices());
  EdgeList forest(edges.num_vertices());
  for (const Edge& e : edges) {
    if (dsu.unite(e.u, e.v)) forest.add(e);
  }
  return forest;
}

EdgeList SpanningForestCoreset::build(EdgeSpan piece,
                                      const PartitionContext& /*ctx*/,
                                      Rng& /*rng*/) const {
  return spanning_forest(piece);
}

EdgeList greedy_spanner(const EdgeList& edges, int t) {
  RCC_CHECK(t >= 1);
  const std::uint64_t limit = 2 * static_cast<std::uint64_t>(t) - 1;
  const VertexId n = edges.num_vertices();
  // Incremental adjacency of the spanner under construction.
  std::vector<std::vector<VertexId>> adj(n);
  EdgeList spanner(n);
  std::vector<std::uint64_t> dist(n, std::numeric_limits<std::uint64_t>::max());
  std::vector<VertexId> touched;
  std::vector<VertexId> queue;
  for (const Edge& e : edges) {
    // Bounded BFS from e.u up to `limit` hops looking for e.v.
    bool within = false;
    queue.clear();
    touched.clear();
    dist[e.u] = 0;
    touched.push_back(e.u);
    queue.push_back(e.u);
    for (std::size_t head = 0; head < queue.size() && !within; ++head) {
      const VertexId v = queue[head];
      if (dist[v] == limit) continue;
      for (VertexId w : adj[v]) {
        if (dist[w] != std::numeric_limits<std::uint64_t>::max()) continue;
        dist[w] = dist[v] + 1;
        touched.push_back(w);
        if (w == e.v) {
          within = true;
          break;
        }
        queue.push_back(w);
      }
    }
    for (VertexId v : touched) {
      dist[v] = std::numeric_limits<std::uint64_t>::max();
    }
    if (!within) {
      spanner.add(e);
      adj[e.u].push_back(e.v);
      adj[e.v].push_back(e.u);
    }
  }
  return spanner;
}

std::uint64_t bfs_distance(const EdgeList& edges, VertexId from, VertexId to) {
  const Graph g(edges);
  std::vector<std::uint64_t> dist(g.num_vertices(),
                                  std::numeric_limits<std::uint64_t>::max());
  std::vector<VertexId> queue;
  dist[from] = 0;
  queue.push_back(from);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const VertexId v = queue[head];
    if (v == to) return dist[v];
    for (VertexId w : g.neighbors(v)) {
      if (dist[w] == std::numeric_limits<std::uint64_t>::max()) {
        dist[w] = dist[v] + 1;
        queue.push_back(w);
      }
    }
  }
  return dist[to];
}

}  // namespace rcc
