// EDCS round-combiner: machines ship edge-degree-constrained subgraphs
// instead of maximum matchings.
//
// The greedy coreset fold (coreset_mpc.cpp) commits each round's maximum
// matching of the shipped UNION of machine matchings — but a machine
// matching is an adversarially thin summary: on trap families (P4 forests
// whose middle edges dominate the pieces, crown forests) the union can lock
// in a constant-factor loss that later rounds never repair, because the
// edges that would fix it were discarded on the machines. "Coresets Meet
// EDCS" (arXiv:1711.03076) replaces the per-machine summary with an EDCS
// (matching/edcs.hpp): a subgraph dense enough (invariant P2) that the union
// of the machines' EDCSs preserves an almost-3/2-approximate matching and an
// almost-3-approximate vertex cover of the round's graph, at beta * n / 2
// shipped words per machine (invariant P1; the communication trade-off is
// the Kapralov-Maystre-Tardos curve, arXiv:2011.06481 — larger beta buys
// quality with communication).
//
// Round shape on the multi-round executor (mpc_engine.hpp):
//
//   machines — machine i builds a (beta, beta - lambda)-EDCS of its shard
//              (IncrementalCsr + MachineScratch: warm rounds allocate
//              nothing) and ships it to machine M,
//   fold     — M unions the subgraphs (the round-combiner's absorb),
//              runs the exact matching solver on the union, extends the
//              cumulative matching (round inputs have both endpoints
//              unmatched, so the extension keeps the whole round matching),
//              and recirculates the still-both-unmatched edges,
//   stop     — when no edge survives, the cumulative matching is maximal in
//              G (edges only ever leave the survivor set by losing an
//              endpoint to the matching, and the matching never shrinks), so
//              the fold certifies the deterministic worst-case ratio 2 for
//              the matching AND for the cover made of its endpoints. On a
//              round-capped run, finish_maximal closes the gap with one
//              coordinator sweep over the survivors (charged 2 words per
//              edge on M) so the certificate still holds.
//
// The certificate is the honest integer-arithmetic bound; the almost-3/2
// EDCS quality is *measured*, not certified — the exact-oracle grid in
// tests/approximation_ratio_test.cpp pins it strictly above the greedy
// fold on the trap families.
#pragma once

#include <cstdint>

#include "matching/edcs.hpp"
#include "matching/matching.hpp"
#include "mpc/mpc_engine.hpp"
#include "util/thread_pool.hpp"
#include "vertex_cover/vertex_cover.hpp"

namespace rcc {

/// Knobs of the EDCS combiner on top of MpcEngineConfig.
struct EdcsRoundsConfig {
  /// Degree parameters of every machine's summary: larger beta ships more
  /// edges per machine and lands closer to 3/2; lambda trades fixpoint work
  /// against density (P2 threshold beta - lambda).
  EdcsParams edcs;

  /// When true (default), a final round that would still leave survivors
  /// closes the matching to maximality with one coordinator sweep over the
  /// survivors, so the run always ends certified (ratio 2). Turning it off
  /// exposes the raw round-capped combiner to experiments.
  bool finish_maximal = true;
};

struct EdcsMpcResult {
  Matching matching;
  /// The endpoints of `matching`: a feasible vertex cover of G whenever the
  /// run certified (the matching is then maximal in G), with the same
  /// worst-case factor 2 against the optimum cover.
  VertexCover cover;
  std::size_t rounds = 0;  // ledger super-steps
  std::uint64_t max_memory_words = 0;
  /// True iff the final matching is maximal in G (always, unless
  /// finish_maximal was disabled AND the round cap cut the run short).
  bool certified = false;
  /// 2.0 when `certified`, else 0.0.
  double certified_ratio = 0.0;
  MpcExecutionStats stats;
};

/// Runs up to config.max_rounds EDCS rounds starting from the empty
/// matching. Every round with surviving edges grows the matching by at
/// least one edge (an EDCS of a non-empty piece is non-empty by P2), so the
/// run terminates within n/2 executor iterations regardless of the round
/// cap. `left_size` > 0 enables the exact bipartite solver on machine M.
EdcsMpcResult run_matching_rounds_edcs(EdgeSource graph,
                                       const MpcEngineConfig& config,
                                       const EdcsRoundsConfig& edcs,
                                       VertexId left_size, Rng& rng,
                                       ThreadPool* pool = nullptr,
                                       ProtocolWorkspace* workspace = nullptr);

}  // namespace rcc
