// The filtering MapReduce algorithm of Lattanzi, Moseley, Suri,
// Vassilvitskii, "Filtering: a method for solving graph problems in
// MapReduce" (SPAA 2011) — the baseline this paper's Section 1.1 compares
// round counts against.
//
// Maximal matching by filtering:
//   while the active edge set exceeds one machine's memory:
//     (round) sample edges at rate memory/(2|E|) onto a central machine,
//             compute a maximal matching there, merge it into M;
//     (round) broadcast M; every machine drops local edges touching M.
//   (round) ship the residual edges to the central machine, finish the
//           maximal matching there.
//
// The final M is maximal on G, hence a 2-approximate maximum matching, and
// V(M) is a 2-approximate vertex cover. With memory n^{1+eps} the loop runs
// O(1/eps) times w.h.p.; at the paper's O~(n sqrt(n)) memory this comes to
// ~3 iterations = ~6 rounds, versus 2 rounds for the coreset algorithm.
//
// filtering_mpc_rounds runs the loop on the multi-round executor
// (mpc_engine.hpp): each filter iteration is one executor round whose
// machine phase draws the Bernoulli sample and whose round-combiner merges
// the sample, declares the broadcast-and-filter super-step, and carries the
// uncovered edges forward. The textbook loop, which runs until the residual
// fits on one machine, is the config {.mpc = cfg, .max_rounds = SIZE_MAX}.
#pragma once

#include "matching/matching.hpp"
#include "mpc/mpc.hpp"
#include "mpc/mpc_engine.hpp"
#include "util/thread_pool.hpp"
#include "vertex_cover/vertex_cover.hpp"

namespace rcc {

struct FilteringMpcResult {
  Matching maximal_matching;  // maximal on G: 2-approx matching
  VertexCover cover;          // V(M): 2-approx vertex cover
  std::size_t rounds = 0;
  std::size_t filter_iterations = 0;
  std::uint64_t max_memory_words = 0;
  /// False only if config.max_rounds capped the loop before the residual fit
  /// on one machine; the matching is then valid but possibly not maximal.
  bool completed = true;
  MpcExecutionStats stats;
};

/// Filtering on the multi-round executor. config.max_rounds caps the filter
/// iterations (the finish step counts as one executor round too);
/// config.input_already_random and config.charge_input_residency are
/// overridden to the filtering model's accounting (no reshuffle; map-side
/// residency is charged by the broadcast step itself).
FilteringMpcResult filtering_mpc_rounds(EdgeSource graph,
                                        const MpcEngineConfig& config, Rng& rng,
                                        ThreadPool* pool = nullptr,
                                        ProtocolWorkspace* workspace = nullptr);

}  // namespace rcc
