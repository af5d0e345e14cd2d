#include "matching/matching.hpp"

namespace rcc {

Matching Matching::from_edges(const EdgeList& edges) {
  Matching m(edges.num_vertices());
  for (const Edge& e : edges) m.match(e.u, e.v);
  return m;
}

void Matching::match(VertexId u, VertexId v) {
  RCC_CHECK(u != v);
  RCC_CHECK(mate_[u] == kInvalidVertex && mate_[v] == kInvalidVertex);
  mate_[u] = v;
  mate_[v] = u;
  ++size_;
}

void Matching::unmatch(VertexId v) {
  const VertexId w = mate_[v];
  if (w == kInvalidVertex) return;
  mate_[v] = kInvalidVertex;
  mate_[w] = kInvalidVertex;
  --size_;
}

EdgeList Matching::to_edge_list() const {
  // Every vertex writes a candidate record at the cursor, which advances
  // only past a real edge (v < mate[v], mate[v] set), so the pass has no
  // data-dependent branch. It stops at the size_-th edge: the buffer holds
  // exactly size_ records and no vertex after that edge's can add one.
  const VertexId n = num_vertices();
  const VertexId* const mate = mate_.data();
  std::vector<Edge> edges(size_);
  Edge* const out = edges.data();
  std::size_t count = 0;
  for (VertexId v = 0; v < n && count < size_; ++v) {
    const VertexId w = mate[v];
    out[count] = Edge{v, w};
    count += (v < w) & (w != kInvalidVertex);
  }
  RCC_CHECK(count == size_);
  return EdgeList::adopt(n, std::move(edges));
}

bool Matching::valid() const {
  std::size_t matched = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    const VertexId w = mate_[v];
    if (w == kInvalidVertex) continue;
    if (w >= num_vertices() || mate_[w] != v || w == v) return false;
    ++matched;
  }
  return matched == 2 * size_;
}

bool Matching::subset_of(EdgeSpan graph_edges) const {
  // Flat scan instead of hashing the whole graph: a graph edge (u, v) is a
  // matched edge iff mate[u] == v, and each matched edge is counted once via
  // its smaller endpoint, so all size_ matched edges were seen iff the count
  // reaches size_. Parallel copies are deduplicated by the seen[] mark.
  std::vector<char> seen(num_vertices(), 0);
  std::size_t found = 0;
  for (const Edge& e : graph_edges) {
    const VertexId lo = e.u < e.v ? e.u : e.v;
    const VertexId hi = e.u < e.v ? e.v : e.u;
    if (mate_[lo] == hi && !seen[lo]) {
      seen[lo] = 1;
      ++found;
    }
  }
  return found == size_;
}

bool Matching::maximal_in(EdgeSpan graph_edges) const {
  for (const Edge& e : graph_edges) {
    if (!is_matched(e.u) && !is_matched(e.v)) return false;
  }
  return true;
}

}  // namespace rcc
