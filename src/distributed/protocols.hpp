// Named end-to-end protocols from the paper, built on the engine:
//
//  * coreset_matching_protocol   — Result 1 upper bound: maximum-matching
//    coresets, O~(nk) total communication, O(1)-approx.
//  * subsampled_matching_protocol — Remark 5.2: trade approximation alpha
//    for communication O~(nk/alpha^2).
//  * coreset_vc_protocol         — Result 1: peeling coresets, O(log n)-approx.
//  * grouped_vc_protocol         — Remark 5.8: contract vertex groups of
//    size Theta(alpha / log n) and run the Theorem 2 coreset on the
//    resulting *multigraph*; alpha-approx with O~(nk/alpha) communication.
#pragma once

#include "distributed/protocol.hpp"

namespace rcc {

MatchingProtocolResult coreset_matching_protocol(
    EdgeSource graph, std::size_t k, VertexId left_size, Rng& rng,
    ThreadPool* pool = nullptr, const StreamingOptions& streaming = {});

MatchingProtocolResult subsampled_matching_protocol(EdgeSource graph,
                                                    std::size_t k, double alpha,
                                                    VertexId left_size, Rng& rng,
                                                    ThreadPool* pool = nullptr);

VcProtocolResult coreset_vc_protocol(EdgeSource graph, std::size_t k,
                                     Rng& rng, ThreadPool* pool = nullptr,
                                     const StreamingOptions& streaming = {});

/// One machine's message in the grouped protocol: the Theorem 2 summary on
/// the contracted multigraph, plus the groups the machine pinned locally.
struct GroupedVcSummary {
  VcCoresetOutput core;
  std::vector<VertexId> pinned_groups;
};

/// The grouped protocol's canonical result type (its summary shape differs
/// from the plain VC protocol's, so it gets its own ProtocolResult).
using GroupedVcProtocolResult = ProtocolResult<VertexCover, GroupedVcSummary>;

/// Remark 5.8. Vertices are grouped as [v/g] with g = max(1,
/// floor(alpha / log2 n)); each machine contracts its piece onto the group
/// universe (dropping nothing: an edge internal to a group pins that group
/// into the machine's fixed solution, since any cover must take one of its
/// endpoints and the group expansion contains both). The returned cover
/// lives in the *original* vertex universe.
GroupedVcProtocolResult grouped_vc_protocol(EdgeSource graph, std::size_t k,
                                            double alpha, Rng& rng,
                                            ThreadPool* pool = nullptr);

/// Former names of coreset_matching_protocol / coreset_vc_protocol, kept as
/// plain forwarders for callers that still use them.
MatchingProtocolResult coreset_matching_protocol_streaming(
    EdgeSource graph, std::size_t k, VertexId left_size, Rng& rng,
    ThreadPool* pool = nullptr, const StreamingOptions& streaming = {});

VcProtocolResult coreset_vc_protocol_streaming(
    EdgeSource graph, std::size_t k, Rng& rng, ThreadPool* pool = nullptr,
    const StreamingOptions& streaming = {});

}  // namespace rcc
