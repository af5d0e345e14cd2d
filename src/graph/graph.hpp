// Immutable CSR (compressed sparse row) graph with optional bipartition
// metadata. Built once from an EdgeList; neighbor queries are contiguous
// spans, which is what the matching/peeling kernels need.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "graph/edge_list.hpp"
#include "util/types.hpp"

namespace rcc {

/// Bipartition metadata: vertices [0, left_size) form the left side L and
/// [left_size, n) the right side R. Generators that produce bipartite graphs
/// attach this; algorithms that require bipartiteness check for it.
struct Bipartition {
  VertexId left_size = 0;

  bool is_left(VertexId v) const { return v < left_size; }
};

/// The tag a solver's `left_size` parameter stands for: none when it is 0.
inline std::optional<Bipartition> bipartition_if(VertexId left_size) {
  if (left_size == 0) return std::nullopt;
  return Bipartition{left_size};
}

class Graph {
 public:
  Graph() = default;

  /// Builds CSR adjacency from an edge view (EdgeList converts implicitly,
  /// and partitioner shards plug in without a copy). Parallel edges are
  /// preserved (they matter for the multigraph reduction of Remark 5.8).
  explicit Graph(EdgeSpan edges,
                 std::optional<Bipartition> bipartition = std::nullopt);

  /// Rebuilds this graph's CSR from a new edge view, reusing the offset and
  /// adjacency storage (no allocation once capacities are warm). Equivalent
  /// to `*this = Graph(edges, bipartition)` minus the heap traffic — the
  /// reuse path of the round-persistent workspaces.
  void assign(EdgeSpan edges,
              std::optional<Bipartition> bipartition = std::nullopt,
              std::vector<std::size_t>* cursor_scratch = nullptr);

  /// Builds the CSR of the parts' concatenation (one vertex universe):
  /// the exact layout assign(EdgeList::union_of(parts)) produces, without
  /// materializing the union — the coordinator's compose reads the machine
  /// summaries in place.
  void assign_union(std::span<const EdgeList> parts,
                    std::optional<Bipartition> bipartition = std::nullopt,
                    std::vector<std::size_t>* cursor_scratch = nullptr);

  VertexId num_vertices() const { return num_vertices_; }
  std::size_t num_edges() const { return edge_count_; }
  /// Edges (u, u), counted with multiplicity.
  std::size_t num_self_loops() const { return self_loops_; }

  /// Neighbors of v as a contiguous span (with multiplicity).
  std::span<const VertexId> neighbors(VertexId v) const {
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }

  VertexId degree(VertexId v) const {
    return static_cast<VertexId>(offsets_[v + 1] - offsets_[v]);
  }

  /// Flat CSR views (sizes n+1 and 2m) for hot solver loops that hoist the
  /// arrays into locals once instead of re-deriving a span per probe.
  const std::size_t* offsets_data() const { return offsets_.data(); }
  const VertexId* adjacency_data() const { return adjacency_.data(); }

  VertexId max_degree() const;

  const std::optional<Bipartition>& bipartition() const { return bipartition_; }
  bool is_bipartite_tagged() const { return bipartition_.has_value(); }

  /// Re-derives the (deduplicated, sorted) edge list u <= v.
  EdgeList to_edge_list() const;

  /// Verifies the bipartition tag against the actual edges (no edge inside
  /// one side). Used by tests and the generators' postconditions.
  bool bipartition_consistent() const;

 private:
  template <typename Part>
  void assign_parts(const Part* parts, std::size_t count, VertexId n,
                    std::optional<Bipartition> bipartition,
                    std::vector<std::size_t>* cursor_scratch);

  VertexId num_vertices_ = 0;
  std::size_t edge_count_ = 0;
  std::size_t self_loops_ = 0;
  std::vector<std::size_t> offsets_;   // size n+1
  std::vector<VertexId> adjacency_;    // size 2m
  std::optional<Bipartition> bipartition_;
};

}  // namespace rcc
