#include "matching/max_matching.hpp"

#include <cstdint>
#include <optional>

#include "matching/blossom.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/warm_start.hpp"
#include "util/workspace.hpp"

namespace rcc {

namespace {

/// Workspace-resident CSR + the signature of the edge sequence it was built
/// from. Unlike the sorted IncrementalCsr of the augmenting search, a Graph's
/// neighbor rows preserve the INPUT EDGE ORDER — and the solvers' returned
/// matchings depend on that order — so the reuse check hashes the sequence,
/// not the multiset: a permuted copy of the same edges rebuilds (it would
/// yield a different, though equally maximum, matching). Collision odds are
/// the usual 2^-64 per pair; a false match only skips rebuilding a CSR that
/// is already byte-identical whp, never changes what the solver computes on
/// the arrays it is handed.
struct CachedGraph {
  Graph g;
  std::uint64_t sig = 0;
  std::size_t m = 0;
  VertexId n = 0;
  VertexId left = 0;
  bool valid = false;
};

std::uint64_t sequence_signature(EdgeSpan edges) {
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  for (const Edge& e : edges) {
    std::uint64_t x = (static_cast<std::uint64_t>(e.u) << 32) | e.v;
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    h = (h ^ (x ^ (x >> 31))) * 1099511628211ULL;  // order-sensitive fold
  }
  return h;
}

}  // namespace

Matching maximum_matching(const Graph& g, MachineScratch* scratch) {
  if (g.is_bipartite_tagged()) return hopcroft_karp(g, scratch);
  return blossom_maximum_matching(g, scratch);
}

Matching maximum_matching(EdgeSpan edges, VertexId left_size,
                          MachineScratch* scratch) {
  Matching result;
  maximum_matching_into(result, edges, left_size, scratch);
  return result;
}

void maximum_matching_into(Matching& out, EdgeSpan edges, VertexId left_size,
                           MachineScratch* scratch) {
  const std::optional<Bipartition> bipartition =
      left_size > 0 ? std::optional<Bipartition>(Bipartition{left_size})
                    : std::nullopt;
  if (scratch != nullptr) {
    // The CSR and every solver array come from the workspace: repeated
    // per-piece / per-round solves reuse one warmed working set, and a
    // repeated solve over the SAME edge sequence (exact-oracle harnesses,
    // per-class re-solves) skips the CSR rebuild outright.
    CachedGraph& cg = scratch->state<CachedGraph>();
    const std::uint64_t sig = sequence_signature(edges);
    if (!(cg.valid && cg.n == edges.num_vertices() &&
          cg.m == edges.num_edges() && cg.left == left_size &&
          cg.sig == sig)) {
      cg.g.assign(edges, bipartition,
                  &scratch->cursor(
                      static_cast<std::size_t>(edges.num_vertices())));
      cg.sig = sig;
      cg.m = edges.num_edges();
      cg.n = edges.num_vertices();
      cg.left = left_size;
      cg.valid = true;
    }
    if (cg.g.is_bipartite_tagged()) {
      hopcroft_karp_into(out, cg.g, scratch);
    } else {
      blossom_maximum_matching_into(out, cg.g, scratch);
    }
    return;
  }
  const Graph g(edges, bipartition);
  if (g.is_bipartite_tagged()) {
    hopcroft_karp_into(out, g);
  } else {
    blossom_maximum_matching_into(out, g);
  }
}

void piece_maximum_matching_into(Matching& out, EdgeSpan edges,
                                 VertexId left_size, MachineScratch* scratch) {
  const std::optional<Bipartition> bipartition =
      left_size > 0 ? std::optional<Bipartition>(Bipartition{left_size})
                    : std::nullopt;
  // The certified seed, and the exact solver only where the seed falls
  // short of its certificate (which the solver then uses as its stop).
  const auto solve = [&](const Graph& g, KarpSipserScratch* seed_scratch) {
    std::size_t certificate = 0;
    karp_sipser_into(out, g, seed_scratch,
                     scratch != nullptr ? scratch->stats() : nullptr,
                     &certificate);
    if (out.size() == certificate) return;
    if (g.is_bipartite_tagged()) {
      hopcroft_karp_into(out, g, scratch, &out, certificate);
    } else {
      blossom_maximum_matching_into(out, g, scratch,
                                    /*prune_hungarian_trees=*/true, &out,
                                    certificate);
    }
  };
  if (scratch == nullptr) {
    solve(Graph(edges, bipartition), nullptr);
    return;
  }
  // A piece is new every call, so its CSR goes straight into the cached
  // graph's storage without hashing the sequence; the cache then holds no
  // sequence a later maximum_matching_into could match.
  CachedGraph& cg = scratch->state<CachedGraph>();
  cg.valid = false;
  cg.g.assign(edges, bipartition,
              &scratch->cursor(static_cast<std::size_t>(edges.num_vertices())));
  solve(cg.g, &scratch->state<KarpSipserScratch>());
}

std::size_t maximum_matching_size(EdgeSpan edges, VertexId left_size) {
  return maximum_matching(edges, left_size).size();
}

}  // namespace rcc
