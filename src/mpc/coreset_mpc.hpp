// The paper's MapReduce algorithm (Section 1.1, "MapReduce Framework"):
//
//   Round 1: every machine re-partitions its locally held edges uniformly at
//            random across all k machines => the shuffle delivers a random
//            k-partitioning of G.
//   Round 2: every machine computes its randomized composable coreset and
//            sends it to the designated machine M, which solves the union.
//
// If the input is random-partitioned to begin with, Round 1 is skipped and
// the whole computation takes a single round.
//
// The *_rounds entry points run Round 2 on the multi-round executor
// (mpc_engine.hpp): each further round re-partitions the edges the current
// solution leaves open and composes coresets of the residual, which can only
// grow the matching. The paper's two-round algorithm is the config
// {.mpc = cfg, .max_rounds = 1, .input_already_random = false}; leave the
// last field at its default (true) when the input is already random. The
// greedy fold here never passes maximality.
#pragma once

#include "matching/matching.hpp"
#include "mpc/mpc.hpp"
#include "mpc/mpc_engine.hpp"
#include "util/thread_pool.hpp"
#include "vertex_cover/vertex_cover.hpp"

namespace rcc {

struct CoresetMpcMatchingResult {
  Matching matching;
  std::size_t rounds = 0;
  std::uint64_t max_memory_words = 0;
  MpcExecutionStats stats;
};

struct CoresetMpcVcResult {
  VertexCover cover;
  std::size_t rounds = 0;
  std::uint64_t max_memory_words = 0;
  MpcExecutionStats stats;
};

/// Iterated coreset rounds for matching: round r composes maximum-matching
/// coresets of the edges both of whose endpoints the cumulative matching
/// leaves unmatched, and extends the matching with the result. Round 0 is
/// exactly the single-round protocol (seed-for-seed); every later round can
/// only add edges, so the approximation is monotone in config.max_rounds.
/// `left_size` > 0 enables the exact bipartite solver on machine M.
/// `workspace` (optional) makes the run's round-persistent buffers outlive
/// the call — repeated runs on one workspace stop allocating entirely.
CoresetMpcMatchingResult coreset_mpc_matching_rounds(
    EdgeSource graph, const MpcEngineConfig& config, VertexId left_size,
    Rng& rng, ThreadPool* pool = nullptr,
    ProtocolWorkspace* workspace = nullptr);

/// Iterated coreset rounds for vertex cover: intermediate rounds commit only
/// the machines' fixed (peeled) vertices and re-partition the edges they do
/// not cover; the final round closes the cover with the full composition
/// (fixed vertices + 2-approximation of the residual union), so the result
/// is always feasible. With max_rounds = 1 this is the single-round
/// protocol.
CoresetMpcVcResult coreset_mpc_vertex_cover_rounds(
    EdgeSource graph, const MpcEngineConfig& config, Rng& rng,
    ThreadPool* pool = nullptr, ProtocolWorkspace* workspace = nullptr);

}  // namespace rcc
