#include "evidence/graph/properties.hpp"

#include <vector>

namespace rcc {

std::size_t connected_components(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<bool> seen(n, false);
  std::vector<VertexId> stack;
  std::size_t components = 0;
  for (VertexId s = 0; s < n; ++s) {
    if (seen[s]) continue;
    ++components;
    seen[s] = true;
    stack.push_back(s);
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (VertexId w : g.neighbors(v)) {
        if (!seen[w]) {
          seen[w] = true;
          stack.push_back(w);
        }
      }
    }
  }
  return components;
}

std::vector<std::size_t> degree_histogram(const Graph& g) {
  std::vector<std::size_t> hist(g.max_degree() + 1, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) ++hist[g.degree(v)];
  return hist;
}

EdgeList induced_matching(EdgeSpan edges) {
  const auto deg = edges.degrees();
  return edges.filter([&](const Edge& e) { return deg[e.u] == 1 && deg[e.v] == 1; });
}

std::size_t degree_one_count(const EdgeList& edges, VertexId prefix) {
  const auto deg = edges.degrees();
  std::size_t count = 0;
  for (VertexId v = 0; v < prefix && v < edges.num_vertices(); ++v) {
    if (deg[v] == 1) ++count;
  }
  return count;
}

bool is_matching(const EdgeList& edges) {
  std::vector<bool> used(edges.num_vertices(), false);
  for (const Edge& e : edges) {
    if (used[e.u] || used[e.v]) return false;
    used[e.u] = used[e.v] = true;
  }
  return true;
}

bool covers_all_edges(const EdgeList& edges, const std::vector<bool>& cover) {
  RCC_CHECK(cover.size() >= edges.num_vertices());
  for (const Edge& e : edges) {
    if (!cover[e.u] && !cover[e.v]) return false;
  }
  return true;
}

bool is_bipartite(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<int> color(n, -1);
  std::vector<VertexId> stack;
  for (VertexId s = 0; s < n; ++s) {
    if (color[s] != -1) continue;
    color[s] = 0;
    stack.push_back(s);
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (VertexId w : g.neighbors(v)) {
        if (color[w] == -1) {
          color[w] = color[v] ^ 1;
          stack.push_back(w);
        } else if (color[w] == color[v]) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace rcc
