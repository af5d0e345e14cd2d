// What a machine knows of the partitioning, plus the adversarial
// partitioners used as contrast.
//
// Random k-partitioning (Section 1): every edge is assigned independently
// and uniformly at random to one of k machines. All of the paper's positive
// results are *conditioned on this partitioning*, which has exactly one
// implementation: the zero-copy sharded partitioner
// (partition/sharded_partition.hpp, `shard_random` + `shard_span`). The
// adversarial partitioners below realize the regime in which [10] proved
// that only Theta(n^{1/3}) approximations are possible with O~(n)-size
// summaries, which the EXP1/EXP2 experiments use as a foil.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/edge_list.hpp"
#include "util/rng.hpp"

namespace rcc {

class MachineScratch;

/// Everything a machine is allowed to know about the global setup: the
/// vertex universe, the machine count, its own index, and (if the instance
/// is bipartite) the bipartition boundary. Machines never see n_edges(G) or
/// anything else about other machines' inputs.
struct PartitionContext {
  VertexId num_vertices = 0;
  std::size_t k = 1;
  std::size_t machine_index = 0;
  VertexId left_size = 0;  // 0 = not known to be bipartite
  /// Round-persistent scratch for this machine (util/workspace.hpp), or
  /// null when the caller runs without a workspace. Purely an execution
  /// resource: it carries no information about the instance, so the
  /// "machines only know their piece" contract is untouched.
  MachineScratch* scratch = nullptr;
};

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
