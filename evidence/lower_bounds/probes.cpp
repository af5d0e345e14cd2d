#include "evidence/lower_bounds/probes.hpp"

#include "evidence/graph/properties.hpp"

namespace rcc {

std::size_t hidden_edges_in(EdgeSpan edges, const DMatchingInstance& inst) {
  std::size_t count = 0;
  for (const Edge& e : edges) {
    if (inst.is_hidden_edge(e)) ++count;
  }
  return count;
}

std::size_t hidden_edges_in(const Matching& m, const DMatchingInstance& inst) {
  return hidden_edges_in(m.to_edge_list(), inst);
}

InducedMatchingCensus induced_matching_census(EdgeSpan piece,
                                              const DMatchingInstance& inst) {
  InducedMatchingCensus census;
  const EdgeList induced = induced_matching(piece);
  census.induced_size = induced.num_edges();
  census.planted_inside = hidden_edges_in(induced, inst);
  census.planted_total = hidden_edges_in(piece, inst);
  return census;
}

DegreeOneCensus degree_one_census(EdgeSpan piece, const DVcInstance& inst) {
  DegreeOneCensus census;
  const auto deg = piece.degrees();
  std::vector<bool> right_seen(piece.num_vertices(), false);
  for (VertexId v = 0; v < inst.n; ++v) {
    if (deg[v] == 1) ++census.left_degree_one;
  }
  for (const Edge& e : piece) {
    if (deg[e.u] == 1 && !right_seen[e.v]) {
      right_seen[e.v] = true;
      ++census.right_neighbors;
    }
    if (e == inst.e_star) census.piece_contains_e_star = true;
  }
  return census;
}

bool covers_e_star(const VertexCover& cover, const DVcInstance& inst) {
  return cover.contains(inst.e_star.u) || cover.contains(inst.e_star.v);
}

}  // namespace rcc
