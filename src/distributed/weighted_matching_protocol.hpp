// Weighted maximum matching in the simultaneous model: the Crouch-Stubbs
// coreset per machine, weighted merge at the coordinator, with the same
// word-exact communication accounting as the unweighted protocols. A thin
// wrapper over the ProtocolEngine instantiated with weighted edges.
#pragma once

#include "coreset/weighted_coreset.hpp"
#include "distributed/message.hpp"
#include "distributed/protocol_engine.hpp"
#include "matching/matching.hpp"
#include "util/thread_pool.hpp"

namespace rcc {

/// The engine's canonical result (`solution` is the matching; `comm`
/// charges a weighted edge 3 words: two ids + one weight) extended with the
/// weighted-protocol derived quantities.
struct WeightedMatchingProtocolResult
    : ProtocolResult<Matching, WeightedCoresetOutput> {
  double matching_weight = 0.0;
  std::size_t max_classes_per_machine = 0;
};

WeightedMatchingProtocolResult weighted_matching_protocol(
    WeightedEdgeSource graph, std::size_t k, VertexId left_size, Rng& rng,
    ThreadPool* pool = nullptr, double class_base = 2.0);

}  // namespace rcc
