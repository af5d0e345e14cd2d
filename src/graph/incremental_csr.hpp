// Incremental counting-sorted CSR adjacency for the round-persistent hot
// paths.
//
// The PR-5 profile showed the augmenting machine phase spending ~40% of its
// time rebuilding a sorted CSR per shard per round: a counting scatter
// followed by n per-vertex `std::sort` calls. Both costs are avoidable. A
// sorted neighbor list is a pure function of the edge *multiset*, so it can
// be produced by counting sort alone — bucket every arc by its target, then
// sweep targets in ascending order appending to each source's row — in
// O(n + m) with zero comparisons. And the multiset itself often does not
// change between calls: the augmenting round-combiner recirculates the same
// edge set every round (only the matching moves), and batch augmentation
// re-searches one fixed graph until no path remains. IncrementalCsr
// therefore remembers an order-independent signature of the multiset it was
// built from and turns those calls into O(m) verification with zero writes.
//
// Ownership rules (see README "Performance playbook"):
//  * the CSR owns its storage and normally lives in a MachineScratch state
//    slot (`scratch.state<IncrementalCsr>()`), so capacity persists across
//    rounds like every other workspace buffer;
//  * `ensure()` is the only entry point hot paths need: it reuses when the
//    signature matches and counting-sort rebuilds otherwise.
//
// Signature caveat: reuse detection is a 64-bit multiset hash (sum of
// per-edge splitmix64 finalizers), so two different multisets collide with
// probability ~2^-64 per pair. The differential tests pin the observable
// behavior seed-for-seed; the hash only ever decides "skip a rebuild that
// would have produced what is already here".
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge_list.hpp"
#include "util/types.hpp"
#include "util/workspace.hpp"

namespace rcc {

class IncrementalCsr {
 public:
  /// Makes the CSR describe `edges` with sorted neighbor rows, reusing the
  /// current arrays when the multiset signature matches. Returns true on
  /// reuse (O(m) verification, no writes), false on a counting-sort rebuild.
  bool ensure(EdgeSpan edges, WorkspaceStats* stats = nullptr) {
    // O(1) pre-checks gate the O(m) hash: when the vertex universe or the
    // arc count already disagree (the machine-phase shape — re-randomized
    // pieces rarely coincide in size round over round), skip straight to
    // the build, which folds the signature into its counting pass.
    if (valid_ && edges.num_vertices() == n_ &&
        2 * edges.num_edges() == num_arcs()) {
      const std::uint64_t sig = multiset_signature(edges);
      if (sig == signature_) {
        ++reuses_;
        return true;
      }
      build_impl<false>(edges, sig, stats);
      return false;
    }
    build_impl<true>(edges, 0, stats);
    return false;
  }

  /// Unconditional counting-sort rebuild (sorted rows, O(n + m), no
  /// comparison sort anywhere).
  void build(EdgeSpan edges, WorkspaceStats* stats = nullptr) {
    build_impl<true>(edges, 0, stats);
  }

  VertexId num_vertices() const { return n_; }
  std::size_t num_arcs() const { return valid_ ? offsets_[n_] : 0; }

  std::span<const VertexId> row(VertexId v) const {
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }

  /// Raw views for flat hot loops (size n+1 / num_arcs()).
  const std::uint32_t* offsets_data() const { return offsets_.data(); }
  const VertexId* arcs_data() const { return neighbors_.data(); }

  /// Maintenance counters: how often ensure() rebuilt vs reused. Tests use
  /// these to prove the reuse path actually fires; they carry no behavioral
  /// weight.
  std::uint64_t rebuilds() const { return rebuilds_; }
  std::uint64_t reuses() const { return reuses_; }

  /// The order-independent multiset signature reuse detection runs on.
  static std::uint64_t multiset_signature(EdgeSpan edges) {
    std::uint64_t sig = 0;
    for (const Edge& e : edges) sig += edge_hash(e.u, e.v);
    return sig;
  }

 private:
  static std::uint64_t edge_hash(VertexId a, VertexId b) {
    const VertexId lo = a < b ? a : b;
    const VertexId hi = a < b ? b : a;
    std::uint64_t x = (static_cast<std::uint64_t>(lo) << 32) | hi;
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// kFuseSignature: fold the multiset hash into the counting pass (the
  /// rebuild-after-failed-prechecks path already paid for a standalone hash
  /// and passes it in instead).
  template <bool kFuseSignature>
  void build_impl(EdgeSpan edges, std::uint64_t sig, WorkspaceStats* stats) {
    const VertexId n = edges.num_vertices();
    const std::size_t m = edges.num_edges();
    // Internal cursors are 32-bit (half the memory traffic of size_t on the
    // n-proportional passes, which dominate for shard pieces where n >> m).
    RCC_CHECK(2 * m <= 0xFFFFFFFFull);
    n_ = n;
    std::uint32_t* off =
        workspace_detail::sized(offsets_, static_cast<std::size_t>(n) + 1,
                                stats)
            .data();
    std::uint32_t* cur =
        workspace_detail::sized(cursor_, static_cast<std::size_t>(n), stats)
            .data();
    std::fill(off, off + n + 1, std::uint32_t{0});
    const Edge* es = edges.data();
    for (std::size_t i = 0; i < m; ++i) {
      ++off[es[i].u + 1];
      ++off[es[i].v + 1];
      if constexpr (kFuseSignature) sig += edge_hash(es[i].u, es[i].v);
    }
    // Fused prefix sum + phase-A cursor initialization (one pass, not two).
    std::uint32_t run = 0;
    for (VertexId v = 0; v < n; ++v) {
      const std::uint32_t d = off[v + 1];
      cur[v] = run;
      off[v + 1] = run + d;
      run += d;
    }
    // Phase A: bucket every arc by its TARGET, storing the source. Bucket
    // sizes equal degrees, so the final offsets double as bucket bounds —
    // and the pass leaves every cursor at its row END.
    VertexId* bkt =
        workspace_detail::sized(bucket_, 2 * m, stats).data();
    for (std::size_t i = 0; i < m; ++i) {
      bkt[cur[es[i].v]++] = es[i].u;
      bkt[cur[es[i].u]++] = es[i].v;
    }
    // Phase B: sweep targets in DESCENDING order, writing each source's row
    // right-to-left through the end-cursors phase A left behind (no cursor
    // re-init pass). Descending targets prepended = ascending rows,
    // duplicates (parallel edges) preserved — exactly what per-row
    // std::sort over a scatter produces, without the n sort calls.
    VertexId* out =
        workspace_detail::sized(neighbors_, 2 * m, stats).data();
    for (VertexId t = n; t-- > 0;) {
      for (std::size_t i = off[t]; i < off[t + 1]; ++i) {
        out[--cur[bkt[i]]] = t;
      }
    }
    signature_ = sig;
    valid_ = true;
    ++rebuilds_;
  }

  // Offsets and cursors are 32-bit on purpose: the n-proportional passes
  // (zero-fill, prefix sum, phase-B outer sweep) are memory-bound and n can
  // dwarf the piece size on shard builds; halving the element width halves
  // their traffic. The build checks 2m fits. ScratchVec because every build
  // overwrites all four arrays end to end — value-initializing them on the
  // cold-start resize would double the first round's memory traffic.
  ScratchVec<std::uint32_t> offsets_;  // n + 1
  ScratchVec<VertexId> neighbors_;     // 2m, rows sorted ascending
  ScratchVec<std::uint32_t> cursor_;   // scratch: scatter cursors
  ScratchVec<VertexId> bucket_;        // scratch: arcs bucketed by target
  VertexId n_ = 0;
  std::uint64_t signature_ = 0;
  bool valid_ = false;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t reuses_ = 0;
};

}  // namespace rcc
