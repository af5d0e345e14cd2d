// What a machine knows of the partitioning.
//
// Random k-partitioning (Section 1): every edge is assigned independently
// and uniformly at random to one of k machines. All of the paper's positive
// results are *conditioned on this partitioning*, which has exactly one
// implementation: the zero-copy sharded partitioner
// (partition/sharded_partition.hpp, `shard_random` + `shard_span`). The
// adversarial partitioners the experiments use as a foil live in the
// evidence library (evidence/partition/adversarial.hpp).
#pragma once

#include <cstddef>

#include "util/types.hpp"

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

}  // namespace rcc
