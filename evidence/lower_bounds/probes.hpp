// Measurement probes that turn the lower-bound proofs' operative quantities
// into numbers the benches can print.
#pragma once

#include <vector>

#include "evidence/lower_bounds/hard_instances.hpp"
#include "graph/edge_list.hpp"
#include "matching/matching.hpp"
#include "vertex_cover/vertex_cover.hpp"

namespace rcc {

/// Number of planted (E_hidden) edges appearing in a matching/edge set —
/// the quantity X_i of the Theorem 3 proof, summed over machines.
std::size_t hidden_edges_in(EdgeSpan edges, const DMatchingInstance& inst);
std::size_t hidden_edges_in(const Matching& m, const DMatchingInstance& inst);

/// Per-machine census for Lemma 4.1 / the indistinguishability argument:
/// size of the machine's induced matching (both endpoints degree one in the
/// piece) and how many of its edges are planted.
struct InducedMatchingCensus {
  std::size_t induced_size = 0;
  std::size_t planted_inside = 0;  // planted edges within the induced matching
  std::size_t planted_total = 0;   // planted edges in the whole piece
};
InducedMatchingCensus induced_matching_census(EdgeSpan piece,
                                              const DMatchingInstance& inst);

/// For D_VC: L1_i / R1_i sizes of Lemma 4.2 on one piece.
struct DegreeOneCensus {
  std::size_t left_degree_one = 0;   // |L1_i|
  std::size_t right_neighbors = 0;   // |R1_i|
  bool piece_contains_e_star = false;
};
DegreeOneCensus degree_one_census(EdgeSpan piece, const DVcInstance& inst);

/// True if the cover touches e* (the event the Theorem 4 adversary denies).
bool covers_e_star(const VertexCover& cover, const DVcInstance& inst);

}  // namespace rcc
