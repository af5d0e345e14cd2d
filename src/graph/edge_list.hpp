// EdgeList: the interchange format between generators, partitioners,
// coresets, and solvers.
//
// A coreset in this paper *is* a subgraph (plus possibly fixed vertices), so
// edge lists — not adjacency structures — are what machines exchange. The
// CSR Graph is built from an EdgeList only where an algorithm needs
// neighbor queries.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace rcc {

class EdgeSpan;

class EdgeList {
 public:
  EdgeList() = default;

  /// num_vertices fixes the vertex universe [0, n); edges may only mention
  /// ids below n (checked on insertion in debug builds).
  explicit EdgeList(VertexId num_vertices) : num_vertices_(num_vertices) {}

  EdgeList(VertexId num_vertices, std::vector<Edge> edges);

  /// Takes `edges` as the list's storage with no copy and no per-edge pass:
  /// the adoption path for records that already hold the list's invariants
  /// (ids in [0, n), u < v) — a wire decoder that checked and normalized
  /// them, or a generator that emits them so. Checked in debug builds only.
  static EdgeList adopt(VertexId num_vertices, std::vector<Edge> edges);

  VertexId num_vertices() const { return num_vertices_; }
  std::size_t num_edges() const { return edges_.size(); }
  bool empty() const { return edges_.empty(); }

  const std::vector<Edge>& edges() const { return edges_; }
  const Edge& operator[](std::size_t i) const { return edges_[i]; }

  auto begin() const { return edges_.begin(); }
  auto end() const { return edges_.end(); }

  void reserve(std::size_t n) { edges_.reserve(n); }

  /// Drops all edges but keeps the vertex universe AND the edge capacity —
  /// the reuse primitive of the round-persistent workspaces: a fold that
  /// clears and refills one list every round stops allocating once the list
  /// reaches its high-water mark.
  void clear() { edges_.clear(); }

  /// clear() plus a (possibly new) vertex universe; capacity is kept.
  void reset(VertexId num_vertices) {
    num_vertices_ = num_vertices;
    edges_.clear();
  }

  /// Replaces the contents with a copy of `src` (universe included),
  /// reusing this list's capacity. The allocation-free alternative to
  /// `list = span.to_edge_list()`.
  void assign(EdgeSpan src);

  /// Replaces the contents with the edges of `src` for which pred(e) holds,
  /// reusing this list's capacity (the in-place alternative to
  /// EdgeSpan::filter). `src` must not alias this list's storage.
  template <typename Pred>
  void assign_filtered(EdgeSpan src, Pred pred);

  /// Adds an edge (normalized). Self-loops are rejected: the matching and
  /// vertex-cover problems are defined on simple graphs (parallel edges are
  /// allowed and meaningful for the Remark 5.8 multigraph reduction).
  void add(VertexId a, VertexId b);
  void add(Edge e) { add(e.u, e.v); }

  /// Appends all edges of another list over the same vertex universe.
  void append(const EdgeList& other);

  /// Degree of every vertex (parallel edges counted with multiplicity).
  std::vector<VertexId> degrees() const;

  /// Sorts edges lexicographically (useful for deterministic output).
  void sort();

  /// Removes parallel duplicates; sorts as a side effect.
  void dedup();

  /// True if some edge joins two distinct vertices more than once.
  bool has_parallel_edges() const;

  /// Keeps edges for which pred(e) is true. (Defined after EdgeSpan below —
  /// the span implementation is the single copy of the loop.)
  template <typename Pred>
  EdgeList filter(Pred pred) const;

  /// Uniform random subset of exactly min(k, m) edges.
  EdgeList sample_edges(std::size_t k, Rng& rng) const;

  /// Independent Bernoulli(p) subsample of the edges.
  EdgeList subsample(double p, Rng& rng) const;

  /// Union of several lists over a common vertex universe.
  static EdgeList union_of(const std::vector<EdgeList>& parts);

 private:
  VertexId num_vertices_ = 0;
  std::vector<Edge> edges_;
};

/// Non-owning view of contiguous edges over a fixed vertex universe. This is
/// what a machine receives from the sharded partitioner: a slice of the
/// shared edge arena, never a copy. Converts implicitly from EdgeList so
/// every span-taking algorithm still accepts owning lists at zero cost.
///
/// Lifetime: the viewed storage (arena or EdgeList) must outlive the span;
/// nothing in the library stores spans beyond the call they are passed to.
class EdgeSpan {
 public:
  EdgeSpan() = default;

  EdgeSpan(const Edge* data, std::size_t size, VertexId num_vertices)
      : data_(data), size_(size), num_vertices_(num_vertices) {}

  /*implicit*/ EdgeSpan(const EdgeList& list)
      : data_(list.edges().data()),
        size_(list.num_edges()),
        num_vertices_(list.num_vertices()) {}

  VertexId num_vertices() const { return num_vertices_; }
  std::size_t num_edges() const { return size_; }
  bool empty() const { return size_ == 0; }

  const Edge& operator[](std::size_t i) const { return data_[i]; }

  const Edge* data() const { return data_; }
  const Edge* begin() const { return data_; }
  const Edge* end() const { return data_ + size_; }

  /// Degree of every vertex (parallel edges counted with multiplicity).
  std::vector<VertexId> degrees() const {
    std::vector<VertexId> deg;
    degrees_into(deg);
    return deg;
  }

  /// degrees() into a caller-owned buffer (reused capacity, no allocation
  /// once `out` has reached the universe size).
  void degrees_into(std::vector<VertexId>& out) const {
    out.assign(num_vertices_, 0);
    for (std::size_t i = 0; i < size_; ++i) {
      ++out[data_[i].u];
      ++out[data_[i].v];
    }
  }

  /// Materializes an owning copy (the only copying operation on a span).
  EdgeList to_edge_list() const {
    return EdgeList(num_vertices_, std::vector<Edge>(begin(), end()));
  }

  /// Uniform random subset of exactly min(k, m) edges; the output owns them.
  EdgeList sample_edges(std::size_t k, Rng& rng) const;

  /// Keeps edges for which pred(e) is true; the output owns its edges.
  template <typename Pred>
  EdgeList filter(Pred pred) const {
    EdgeList out(num_vertices_);
    for (std::size_t i = 0; i < size_; ++i) {
      if (pred(data_[i])) out.add(data_[i]);
    }
    return out;
  }

 private:
  const Edge* data_ = nullptr;
  std::size_t size_ = 0;
  VertexId num_vertices_ = 0;
};

template <typename Pred>
EdgeList EdgeList::filter(Pred pred) const {
  return EdgeSpan(*this).filter(pred);
}

inline void EdgeList::assign(EdgeSpan src) {
  num_vertices_ = src.num_vertices();
  edges_.assign(src.begin(), src.end());
}

template <typename Pred>
void EdgeList::assign_filtered(EdgeSpan src, Pred pred) {
  RCC_DCHECK(edges_.empty() || src.begin() < edges_.data() ||
             src.begin() >= edges_.data() + edges_.size());
  num_vertices_ = src.num_vertices();
  edges_.clear();
  for (const Edge& e : src) {
    if (pred(e)) edges_.push_back(e);
  }
}

}  // namespace rcc
