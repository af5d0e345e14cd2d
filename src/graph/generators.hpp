// Synthetic graph generators for every instance family the paper uses.
//
// All generators are deterministic functions of the Rng passed in; all
// bipartite generators lay out vertices as [0, nL) = L, [nL, nL+nR) = R and
// tag the result so downstream algorithms can dispatch.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace rcc {

/// Erdos-Renyi G(n, p) via geometric skipping: O(p * n^2) expected time.
EdgeList gnp(VertexId n, double p, Rng& rng);

/// G(n, m): exactly m distinct edges sampled uniformly (n*(n-1)/2 universe).
/// Aborts through RCC_CHECK when m exceeds that universe, so n < 2 admits
/// only m = 0.
EdgeList gnm(VertexId n, std::uint64_t m, Rng& rng);

/// Random bipartite graph: each L x R pair independently with probability p.
/// Vertex universe [0, nL + nR); result carries a Bipartition tag when built
/// as a Graph via bipartite_graph().
EdgeList random_bipartite(VertexId nL, VertexId nR, double p, Rng& rng);

/// Bipartite graph where every left vertex picks exactly d random distinct
/// right neighbors ("left-d-regular"). Used by the lower-bound distribution
/// sketch in Section 1.2 (random k-regular bipartite graph).
EdgeList left_regular_bipartite(VertexId nL, VertexId nR, VertexId d, Rng& rng);

/// Perfect matching i <-> nL + pi(i) on a random permutation pi.
EdgeList random_perfect_matching(VertexId n_per_side, Rng& rng);

/// Complete bipartite K(nL, nR).
EdgeList complete_bipartite(VertexId nL, VertexId nR);

/// Crown graph S_n^0: K(n, n) minus the perfect matching (a_i, b_i) — every
/// left vertex i adjacent to every right vertex n + j with j != i. Has a
/// perfect matching for n >= 2, but a near-perfect matching that strands the
/// SAME index on both sides (a_d and b_d free) is maximal — the "missing
/// diagonal" kills the free-free edge — so greedy extension gets stuck one
/// edge short while a single length-3 augmenting path closes the gap. This
/// is the trap family that separates greedy folds from maximum matchings.
EdgeList crown(VertexId n_per_side);

/// Disjoint union of `count` crown graphs with `size` vertices per side.
/// Every component carries its own stranding trap (a random maximal matching
/// of crown(3) is one edge short with probability 1/3), so greedy folds lose
/// Theta(count) edges that a maximum matching keeps.
EdgeList crown_forest(VertexId count, VertexId size);

/// Star: center 0 connected to leaves 1..n-1 (the Section 1.2 instance that
/// defeats the minimum-VC-as-coreset idea).
EdgeList star(VertexId n);

/// Disjoint union of `count` stars with `leaves` leaves each.
EdgeList star_forest(VertexId count, VertexId leaves);

/// Path on n vertices.
EdgeList path(VertexId n);

/// Cycle on n vertices (n >= 3).
EdgeList cycle(VertexId n);

/// Chung-Lu power-law-ish graph: expected degree of vertex i proportional to
/// (i+1)^(-1/(beta-1)), normalized to average degree avg_deg. Models the
/// "massive web/social graph" motivation of the MapReduce section.
EdgeList chung_lu_power_law(VertexId n, double beta, double avg_deg, Rng& rng);

/// The hub-gadget instance on which an arbitrary (adversarial) maximal
/// matching coreset degrades to Omega(k) while a maximum matching coreset
/// stays O(1) (Section 1.2 discussion).
///
/// Layout: L = {a_0..a_{n-1}}, R = {b_0..b_{n-1}}, hubs C = {c_0..c_{h-1}}
/// placed on the right side after R. Edges: the perfect matching (a_i, b_i)
/// plus all hub edges (a_i, c_j). With h = Theta(n/k) hubs an adversarial
/// maximal matching inside each random piece can cover nearly every a_i whose
/// matching edge lives in that piece using hub edges, destroying the
/// matching; the union of such coresets has maximum matching O(n/k + h).
struct HubGadget {
  EdgeList edges;      // universe: n left + n right + hubs
  VertexId n = 0;      // pairs
  VertexId hubs = 0;   // |C|
  VertexId left_size = 0;  // bipartition boundary (= n)
};
HubGadget hub_gadget(VertexId n, VertexId hubs);

/// Builds a Graph with a bipartition tag (left_size = nL).
Graph bipartite_graph(const EdgeList& edges, VertexId nL);

/// Builds a Graph with no bipartition tag.
Graph general_graph(const EdgeList& edges);

}  // namespace rcc
