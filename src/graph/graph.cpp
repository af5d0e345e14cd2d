#include "graph/graph.hpp"

#include <algorithm>

namespace rcc {

Graph::Graph(EdgeSpan edges, std::optional<Bipartition> bipartition) {
  assign(edges, bipartition);
}

void Graph::assign(EdgeSpan edges, std::optional<Bipartition> bipartition,
                   std::vector<std::size_t>* cursor_scratch) {
  assign_parts(&edges, 1, edges.num_vertices(), bipartition, cursor_scratch);
}

void Graph::assign_union(std::span<const EdgeList> parts,
                         std::optional<Bipartition> bipartition,
                         std::vector<std::size_t>* cursor_scratch) {
  RCC_CHECK(!parts.empty());
  assign_parts(parts.data(), parts.size(), parts.front().num_vertices(),
               bipartition, cursor_scratch);
}

template <typename Part>
void Graph::assign_parts(const Part* parts, std::size_t count, VertexId n,
                         std::optional<Bipartition> bipartition,
                         std::vector<std::size_t>* cursor_scratch) {
  num_vertices_ = n;
  bipartition_ = bipartition;
  edge_count_ = 0;
  self_loops_ = 0;
  offsets_.assign(std::size_t{n} + 1, 0);
  std::size_t* off = offsets_.data();
  for (std::size_t p = 0; p < count; ++p) {
    const EdgeSpan part(parts[p]);
    RCC_CHECK(part.num_vertices() == n);
    const Edge* es = part.data();
    const std::size_t m = part.num_edges();
    std::size_t loops = 0;
    for (std::size_t i = 0; i < m; ++i) {
      ++off[es[i].u + 1];
      ++off[es[i].v + 1];
      loops += es[i].u == es[i].v;
    }
    edge_count_ += m;
    self_loops_ += loops;
  }
  std::vector<std::size_t> local_cursor;
  std::vector<std::size_t>& cursor =
      cursor_scratch != nullptr ? *cursor_scratch : local_cursor;
  cursor.resize(n);
  std::size_t* cur = cursor.data();
  // Fused prefix sum + cursor initialization: one pass over the vertex
  // range instead of a prefix pass followed by a copy. Layout unchanged —
  // neighbors keep the input edge order, parts in sequence (the scatter
  // below is stable), which downstream solvers' returned matchings depend
  // on.
  std::size_t run = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t d = off[v + 1];
    cur[v] = run;
    off[v + 1] = run + d;
    run += d;
  }
  adjacency_.resize(edge_count_ * 2);
  VertexId* adj = adjacency_.data();
  for (std::size_t p = 0; p < count; ++p) {
    const EdgeSpan part(parts[p]);
    const Edge* es = part.data();
    const std::size_t m = part.num_edges();
    for (std::size_t i = 0; i < m; ++i) {
      adj[cur[es[i].u]++] = es[i].v;
      adj[cur[es[i].v]++] = es[i].u;
    }
  }
}

VertexId Graph::max_degree() const {
  VertexId best = 0;
  for (VertexId v = 0; v < num_vertices_; ++v) best = std::max(best, degree(v));
  return best;
}

EdgeList Graph::to_edge_list() const {
  EdgeList out(num_vertices_);
  out.reserve(edge_count_);
  for (VertexId v = 0; v < num_vertices_; ++v) {
    for (VertexId w : neighbors(v)) {
      if (v < w) out.add(v, w);
    }
  }
  // Parallel edges appear once per copy from the smaller endpoint; fine.
  return out;
}

bool Graph::bipartition_consistent() const {
  if (!bipartition_) return false;
  const VertexId ls = bipartition_->left_size;
  for (VertexId v = 0; v < num_vertices_; ++v) {
    const bool v_left = v < ls;
    for (VertexId w : neighbors(v)) {
      if ((w < ls) == v_left) return false;
    }
  }
  return true;
}

}  // namespace rcc
