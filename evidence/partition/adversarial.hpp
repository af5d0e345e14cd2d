// The adversarial partitioners used as contrast to random k-partitioning.
//
// They realize the regime in which [10] proved that only Theta(n^{1/3})
// approximations are possible with O~(n)-size summaries, which the EXP1/EXP2
// experiments use as a foil. The system's one partitioner is the random
// sharded one (partition/sharded_partition.hpp).
#pragma once

#include <cstddef>
#include <vector>

#include "graph/edge_list.hpp"
#include "util/rng.hpp"

namespace rcc {

/// Adversarial: contiguous chunks of the lexicographically sorted edge list,
/// so each machine sees a vertex-local cluster of edges.
std::vector<EdgeList> sorted_chunk_partition(const EdgeList& edges, std::size_t k);

/// Adversarial: edge (u, v) goes to machine u % k, correlating all edges of
/// a left vertex onto one machine.
std::vector<EdgeList> by_vertex_partition(const EdgeList& edges, std::size_t k);

/// The *vertex-partition* simultaneous model of [10] (Section 1.3): each
/// vertex is assigned uniformly at random to a machine, and every machine
/// receives all edges incident on its vertices — so an edge whose endpoints
/// live on different machines appears on both. In this model [10] prove
/// that beating O(sqrt(k))-approximation takes more than O~(n) words per
/// machine; the library includes it for model completeness and contrast.
std::vector<EdgeList> random_vertex_partition(const EdgeList& edges,
                                              std::size_t k, Rng& rng);

}  // namespace rcc
