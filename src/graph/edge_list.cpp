#include "graph/edge_list.hpp"

#include <algorithm>

namespace rcc {

EdgeList::EdgeList(VertexId num_vertices, std::vector<Edge> edges)
    : num_vertices_(num_vertices), edges_(std::move(edges)) {
  for (auto& e : edges_) {
    RCC_CHECK(e.u < num_vertices_ && e.v < num_vertices_);
    RCC_CHECK(!e.is_loop());
    if (e.u > e.v) std::swap(e.u, e.v);
  }
}

EdgeList EdgeList::adopt(VertexId num_vertices, std::vector<Edge> edges) {
  EdgeList out(num_vertices);
  out.edges_ = std::move(edges);
#ifndef NDEBUG
  for (const Edge& e : out.edges_) {
    RCC_DCHECK(e.u < e.v && e.v < num_vertices);
  }
#endif
  return out;
}

void EdgeList::add(VertexId a, VertexId b) {
  RCC_DCHECK(a < num_vertices_ && b < num_vertices_);
  RCC_CHECK(a != b);
  edges_.push_back(make_edge(a, b));
}

void EdgeList::append(const EdgeList& other) {
  RCC_CHECK(other.num_vertices_ == num_vertices_);
  edges_.insert(edges_.end(), other.edges_.begin(), other.edges_.end());
}

std::vector<VertexId> EdgeList::degrees() const {
  return EdgeSpan(*this).degrees();
}

void EdgeList::sort() { std::sort(edges_.begin(), edges_.end()); }

void EdgeList::dedup() {
  sort();
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
}

bool EdgeList::has_parallel_edges() const {
  auto copy = edges_;
  std::sort(copy.begin(), copy.end());
  return std::adjacent_find(copy.begin(), copy.end()) != copy.end();
}

EdgeList EdgeList::sample_edges(std::size_t k, Rng& rng) const {
  return EdgeSpan(*this).sample_edges(k, rng);
}

EdgeList EdgeSpan::sample_edges(std::size_t k, Rng& rng) const {
  if (k >= size_) return to_edge_list();
  std::vector<Edge> out;
  out.reserve(k);
  for (auto idx : rng.sample_distinct(size_, k)) out.push_back(data_[idx]);
  return EdgeList(num_vertices_, std::move(out));
}

EdgeList EdgeList::subsample(double p, Rng& rng) const {
  EdgeList out(num_vertices_);
  if (p <= 0.0) return out;
  if (p >= 1.0) return *this;
  // Geometric skipping keeps this O(p * m) instead of one bernoulli per edge.
  std::size_t i = rng.geometric_skip(p);
  while (i < edges_.size()) {
    out.edges_.push_back(edges_[i]);
    i += 1 + rng.geometric_skip(p);
  }
  return out;
}

EdgeList EdgeList::union_of(const std::vector<EdgeList>& parts) {
  RCC_CHECK(!parts.empty());
  EdgeList out(parts.front().num_vertices());
  std::size_t total = 0;
  for (const auto& p : parts) total += p.num_edges();
  out.reserve(total);
  for (const auto& p : parts) out.append(p);
  return out;
}

}  // namespace rcc
