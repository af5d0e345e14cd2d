// Augmenting-path round-combiner: (1+eps) multi-round matching on the MPC
// executor.
//
// The greedy combiner (coreset_mpc.cpp) folds machine matchings into the
// cumulative solution and can therefore never pass maximality — its fixed
// points are maximal matchings, a 2-approximation. This combiner iterates a
// different round shape (the subgraph-rounds + short-augmenting-paths recipe
// of "Coresets Meet EDCS", arXiv:1711.03076, and "Communication Efficient
// Coresets for Maximum Matching", arXiv:2011.06481):
//
//   broadcast — the cumulative matching M goes out to every machine (2|M|
//               words each, charged on the ledger),
//   machines  — each machine searches ITS shard for vertex-disjoint
//               augmenting paths of length <= 2k+1 relative to M
//               (matching/augmenting_paths.hpp; only the non-matching hops
//               must live in the shard, the matched hops ride on M),
//   fold      — machine M collects the candidate paths (one word per path
//               vertex), resolves conflicts first-wins in canonical
//               (lexicographic) order — vertex-disjoint survivors stay
//               augmenting no matter the apply order — and flips their
//               symmetric differences into M.
//
// Rounds re-partition the full edge set with fresh randomness, so a path
// whose hops straddled shards this round can land inside one shard later.
// When a round's machines all come up empty, the coordinator runs one exact
// sweep over the round's full edge set: if that also finds nothing, NO
// augmenting path of length <= 2k+1 exists anywhere, which certifies
//
//   |M*| / |M| <= 1 + 1/(k+1)
//
// by the standard short-augmenting-path bound — that is the early stop, and
// the certificate is recorded in MpcExecutionStats::certified_ratio. (If the
// sweep does find paths, they are applied and charged, so every non-final
// round augments at least once and the run terminates within |M*| rounds.)
#pragma once

#include <cstdint>

#include "matching/matching.hpp"
#include "mpc/mpc_engine.hpp"
#include "util/thread_pool.hpp"

namespace rcc {

/// Knobs of the augmenting combiner on top of MpcEngineConfig.
struct AugmentingRoundsConfig {
  /// Odd path-length cap 2k+1; the early-stop certificate is 1 + 1/(k+1).
  std::size_t max_path_length = 3;

  /// Smallest odd cap whose certificate 1 + 1/(k+1) is <= 1 + epsilon:
  /// k = ceil(1/epsilon) - 1. epsilon >= 1 degenerates to length-1 paths
  /// (greedy free-edge rounds, certificate 2).
  static AugmentingRoundsConfig for_epsilon(double epsilon);

  /// The ratio the no-augmenting-path early stop certifies: 1 + 2/(L+1)
  /// for cap L = 2k+1 (== 1 + 1/(k+1)).
  double certified_ratio() const {
    return 1.0 + 2.0 / static_cast<double>(max_path_length + 1);
  }
};

struct AugmentingMpcResult {
  Matching matching;
  std::size_t rounds = 0;  // ledger super-steps
  std::uint64_t max_memory_words = 0;
  /// True iff the run early-stopped on the no-augmenting-path certificate
  /// (always true when max_rounds is generous; false only when the round cap
  /// cut the run short).
  bool certified = false;
  /// The certified worst-case ratio when `certified`, else 0.0.
  double certified_ratio = 0.0;
  /// Augmenting paths applied across the run; each grows |M| by one, so this
  /// equals matching.size() (asserted by the mpc suite).
  std::size_t total_augmentations = 0;
  MpcExecutionStats stats;
};

/// Runs up to config.max_rounds augmenting rounds starting from the empty
/// matching (round 0's length-1 paths bootstrap it). `config.early_stop` is
/// ignored — the surviving edge set never shrinks, so the combiner stops via
/// its certificate instead of the executor's no-progress check. `left_size`
/// is accepted for signature symmetry with the greedy entry point; the path
/// search itself needs no bipartition.
AugmentingMpcResult run_matching_rounds_augmenting(
    EdgeSource graph, const MpcEngineConfig& config,
    const AugmentingRoundsConfig& aug, VertexId left_size, Rng& rng,
    ThreadPool* pool = nullptr, ProtocolWorkspace* workspace = nullptr);

}  // namespace rcc
