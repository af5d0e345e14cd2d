// Legacy-shaped entry points for the simultaneous coordinator model.
//
// These are thin wrappers over the unified ProtocolEngine
// (protocol_engine.hpp): one run = sharded random partition into a flat
// edge arena -> every machine builds its summary from its zero-copy shard
// (thread pool; one task per machine; independent forked RNG streams) ->
// the coordinator combines the summaries with no further interaction.
#pragma once

#include <vector>

#include "coreset/compose.hpp"
#include "coreset/coreset.hpp"
#include "distributed/message.hpp"
#include "distributed/protocol_engine.hpp"
#include "matching/matching.hpp"
#include "util/thread_pool.hpp"
#include "vertex_cover/vertex_cover.hpp"

namespace rcc {

/// One canonical result type per protocol: the engine's ProtocolResult used
/// directly (`solution` is the matching / cover; `summaries` are retained
/// for probes such as hidden-edge counts). These were standalone wrapper
/// structs before the engine result grew to carry everything they did.
using MatchingProtocolResult = ProtocolResult<Matching, EdgeList>;
using VcProtocolResult = ProtocolResult<VertexCover, VcCoresetOutput>;

/// Runs the simultaneous matching protocol: coreset per machine, then the
/// coordinator solves the union. `left_size` > 0 declares the instance
/// bipartite (known to all parties, as in the paper's hard distributions).
/// `pool` may be null for sequential execution. `graph` is an EdgeSource —
/// implicit from an EdgeList or an mmap-backed MappedGraph, same protocol
/// seed-for-seed either way (this holds for every entry point below).
/// `streaming` picks the machine-phase transport (in-process by default);
/// every transport returns the same result seed for seed.
MatchingProtocolResult run_matching_protocol(
    EdgeSource graph, std::size_t k, const MatchingCoreset& coreset,
    ComposeSolver solver, VertexId left_size, Rng& rng,
    ThreadPool* pool = nullptr, const StreamingOptions& streaming = {});

/// Same engine over a pre-made partition (lets experiments contrast random
/// vs adversarial partitionings on identical edges).
MatchingProtocolResult run_matching_protocol_on_partition(
    const std::vector<EdgeList>& pieces, const MatchingCoreset& coreset,
    ComposeSolver solver, VertexId left_size, Rng& rng,
    ThreadPool* pool = nullptr);

/// Runs the simultaneous vertex cover protocol.
VcProtocolResult run_vc_protocol(EdgeSource graph, std::size_t k,
                                 const VertexCoverCoreset& coreset, Rng& rng,
                                 ThreadPool* pool = nullptr,
                                 const StreamingOptions& streaming = {});

VcProtocolResult run_vc_protocol_on_partition(
    const std::vector<EdgeList>& pieces, const VertexCoverCoreset& coreset,
    VertexId num_vertices, Rng& rng, ThreadPool* pool = nullptr);

}  // namespace rcc
