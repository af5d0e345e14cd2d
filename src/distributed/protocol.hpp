// Entry points of the unweighted matching and vertex cover protocols in the
// simultaneous coordinator model.
//
// Each is one instance of the ProtocolEngine (protocol_engine.hpp): one run
// = sharded random partition into a flat edge arena -> every machine builds
// its summary from its zero-copy shard (thread pool; one task per machine;
// independent forked RNG streams) -> the coordinator combines the summaries
// with no further interaction.
#pragma once

#include <span>
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

/// Same engine over pre-made pieces (lets experiments contrast random vs
/// adversarial partitionings on identical edges, or reuse one partition
/// across coresets). `pieces` are views over one universe of `num_vertices`
/// — `pieces_of(parts)` of a ShardedPartition or of owning lists — and
/// their storage must outlive the call.
MatchingProtocolResult run_matching_protocol_on_partition(
    const std::vector<std::span<const Edge>>& pieces, VertexId num_vertices,
    const MatchingCoreset& coreset, ComposeSolver solver, VertexId left_size,
    Rng& rng, ThreadPool* pool = nullptr);

/// Runs the simultaneous vertex cover protocol.
VcProtocolResult run_vc_protocol(EdgeSource graph, std::size_t k,
                                 const VertexCoverCoreset& coreset, Rng& rng,
                                 ThreadPool* pool = nullptr,
                                 const StreamingOptions& streaming = {});

}  // namespace rcc
