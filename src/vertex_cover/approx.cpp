#include "vertex_cover/approx.hpp"

#include <algorithm>
#include <vector>

#include "graph/graph.hpp"

namespace rcc {

VertexCover vc_two_approximation(const EdgeList& edges, Rng& rng) {
  std::vector<Edge> open(edges.begin(), edges.end());
  VertexCover cover(edges.num_vertices());
  cover_by_random_greedy(open, cover, rng);
  return cover;
}

void cover_by_random_greedy(std::vector<Edge>& open, VertexCover& cover,
                            Rng& rng) {
  rng.shuffle(open);
  for (const Edge& e : open) {
    if (!cover.contains(e.u) && !cover.contains(e.v)) {
      cover.insert(e.u);
      cover.insert(e.v);
    }
  }
}

VertexCover vc_greedy_max_degree(const EdgeList& edges) {
  const Graph g(edges);
  const VertexId n = g.num_vertices();
  std::vector<std::int64_t> residual(n);
  for (VertexId v = 0; v < n; ++v) residual[v] = g.degree(v);

  // Bucket queue over degrees; lazily skip stale entries.
  const VertexId max_deg = g.max_degree();
  std::vector<std::vector<VertexId>> buckets(max_deg + 1);
  for (VertexId v = 0; v < n; ++v) buckets[residual[v]].push_back(v);

  std::vector<bool> removed(n, false);
  VertexCover cover(n);
  std::int64_t cur = max_deg;
  while (cur > 0) {
    auto& bucket = buckets[cur];
    if (bucket.empty()) {
      --cur;
      continue;
    }
    const VertexId v = bucket.back();
    bucket.pop_back();
    if (removed[v] || residual[v] != cur) continue;  // stale entry
    // Take v into the cover; its incident edges disappear.
    cover.insert(v);
    removed[v] = true;
    residual[v] = 0;
    for (VertexId w : g.neighbors(v)) {
      if (removed[w]) continue;
      if (--residual[w] > 0) {
        buckets[residual[w]].push_back(w);
      }
    }
  }
  return cover;
}

}  // namespace rcc
