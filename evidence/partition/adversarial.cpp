#include "evidence/partition/adversarial.hpp"

#include <algorithm>

namespace rcc {

std::vector<EdgeList> sorted_chunk_partition(const EdgeList& edges,
                                             std::size_t k) {
  RCC_CHECK(k >= 1);
  EdgeList sorted = edges;
  sorted.sort();
  std::vector<EdgeList> parts(k, EdgeList(edges.num_vertices()));
  const std::size_t m = sorted.num_edges();
  for (std::size_t i = 0; i < m; ++i) {
    parts[std::min(k - 1, i * k / std::max<std::size_t>(m, 1))].add(sorted[i]);
  }
  return parts;
}

std::vector<EdgeList> by_vertex_partition(const EdgeList& edges, std::size_t k) {
  RCC_CHECK(k >= 1);
  std::vector<EdgeList> parts(k, EdgeList(edges.num_vertices()));
  for (const Edge& e : edges) {
    parts[e.u % k].add(e);
  }
  return parts;
}

std::vector<EdgeList> random_vertex_partition(const EdgeList& edges,
                                              std::size_t k, Rng& rng) {
  RCC_CHECK(k >= 1);
  const VertexId n = edges.num_vertices();
  std::vector<std::uint32_t> owner(n);
  for (VertexId v = 0; v < n; ++v) {
    owner[v] = static_cast<std::uint32_t>(rng.next_below(k));
  }
  std::vector<EdgeList> parts(k, EdgeList(n));
  for (const Edge& e : edges) {
    parts[owner[e.u]].add(e);
    if (owner[e.v] != owner[e.u]) parts[owner[e.v]].add(e);
  }
  return parts;
}

}  // namespace rcc
