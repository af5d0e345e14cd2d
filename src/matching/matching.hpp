// Matching value type with O(m) validation.
#pragma once

#include <limits>
#include <vector>

#include "graph/edge_list.hpp"
#include "util/types.hpp"

namespace rcc {

/// "No known upper bound" for the exact solvers' `size_bound` parameter.
inline constexpr std::size_t kNoSizeBound =
    std::numeric_limits<std::size_t>::max();

/// A matching over a fixed vertex universe [0, n): a set of vertex-disjoint
/// edges, stored both as the mate array (mate[v] == kInvalidVertex when v is
/// unmatched) and implicitly recoverable as an edge list.
class Matching {
 public:
  Matching() = default;
  explicit Matching(VertexId num_vertices)
      : mate_(num_vertices, kInvalidVertex) {}

  /// Builds from an edge list; aborts if the edges are not vertex-disjoint.
  static Matching from_edges(const EdgeList& edges);

  VertexId num_vertices() const { return static_cast<VertexId>(mate_.size()); }

  /// Number of matched edges.
  std::size_t size() const { return size_; }

  bool is_matched(VertexId v) const { return mate_[v] != kInvalidVertex; }
  VertexId mate(VertexId v) const { return mate_[v]; }

  /// Flat view of the mate array (size num_vertices()) for hot search loops
  /// that hoist it into a register once instead of re-entering the
  /// accessors per probe. Read-only; kInvalidVertex marks unmatched slots.
  const VertexId* mate_data() const { return mate_.data(); }

  /// Re-initializes to the empty matching over [0, num_vertices), keeping
  /// the mate array's capacity — the reuse primitive that lets solvers and
  /// round-combiners recycle one Matching instead of reconstructing it.
  void reset(VertexId num_vertices) {
    mate_.assign(num_vertices, kInvalidVertex);
    size_ = 0;
  }

  /// Adds edge (u, v); both endpoints must currently be unmatched.
  void match(VertexId u, VertexId v);

  /// match() for a caller that has checked its precondition (u != v, both
  /// unmatched) on state of its own: writes both mates without reading
  /// them, saving two random reads per match.
  void match_unread(VertexId u, VertexId v) {
    RCC_DCHECK(u != v && mate_[u] == kInvalidVertex && mate_[v] == kInvalidVertex);
    mate_[u] = v;
    mate_[v] = u;
    ++size_;
  }

  /// Removes the edge covering v (and its mate); no-op if v is unmatched.
  void unmatch(VertexId v);

  /// The matched edges as an EdgeList: each edge once as (u, v) with u < v,
  /// in increasing order of u. One branch-free pass over the mates fills a
  /// buffer of exactly size() records, which the list adopts.
  EdgeList to_edge_list() const;

  /// Internal consistency: mate is an involution and size_ agrees.
  bool valid() const;

  /// True if every matched edge actually exists in `graph_edges`
  /// (set-membership check; used by tests to catch fabricated edges).
  bool subset_of(EdgeSpan graph_edges) const;

  /// True if no edge of `graph_edges` has both endpoints unmatched — i.e.
  /// the matching is maximal in that graph.
  bool maximal_in(EdgeSpan graph_edges) const;

 private:
  std::vector<VertexId> mate_;
  std::size_t size_ = 0;
};

}  // namespace rcc
