// Thread-count invariance of the ProtocolEngine's machine phase
// (distributed/protocol_engine.hpp): the in-process machine phase runs one
// parallel_for over the machines when a pool is given and a plain loop
// otherwise, and the coordinator combines only after every summary landed.
// For every driver (matching, VC, grouped VC, weighted matching and weighted
// VC), runs with no pool, a one-thread pool, and a four-thread pool must be
// seed-for-seed IDENTICAL — exact solutions, word-exact communication,
// per-machine summary sizes, and the caller's RNG left at the same stream
// position.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "coreset/matching_coresets.hpp"
#include "coreset/vc_coreset.hpp"
#include "distributed/protocol.hpp"
#include "distributed/protocols.hpp"
#include "distributed/weighted_matching_protocol.hpp"
#include "distributed/weighted_vc_protocol.hpp"
#include "graph/generators.hpp"
#include "util/thread_pool.hpp"

namespace rcc {
namespace {

std::vector<Edge> sorted_edges(const Matching& m) {
  EdgeList el = m.to_edge_list();
  el.sort();
  return el.edges();
}

constexpr std::size_t kMachines = 5;

/// The pool shapes every grid compares: none, one thread, four threads.
struct PoolShape {
  std::unique_ptr<ThreadPool> pool;
  std::string name;
  ThreadPool* get() const { return pool.get(); }
};

std::vector<PoolShape> pool_shapes() {
  std::vector<PoolShape> shapes;
  shapes.push_back({nullptr, "pool=null"});
  shapes.push_back({std::make_unique<ThreadPool>(1), "pool=1"});
  shapes.push_back({std::make_unique<ThreadPool>(4), "pool=4"});
  return shapes;
}

TEST(ThreadInvariance, MatchingIsIdenticalAcrossPoolShapes) {
  const MaximumMatchingCoreset coreset;
  const std::vector<PoolShape> shapes = pool_shapes();
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng gen(seed);
    const EdgeList el = gnp(400, 5.0 / 400, gen);
    Rng base_rng(seed);
    const MatchingProtocolResult base = run_matching_protocol(
        el, kMachines, coreset, ComposeSolver::kMaximum, 0, base_rng);
    for (const PoolShape& shape : shapes) {
      Rng rng(seed);
      const MatchingProtocolResult got = run_matching_protocol(
          el, kMachines, coreset, ComposeSolver::kMaximum, 0, rng, shape.get());
      EXPECT_EQ(sorted_edges(base.solution), sorted_edges(got.solution))
          << "seed=" << seed << " " << shape.name;
      EXPECT_EQ(base.comm.total_words(), got.comm.total_words());
      ASSERT_EQ(base.summaries.size(), got.summaries.size());
      for (std::size_t i = 0; i < kMachines; ++i) {
        EXPECT_EQ(base.summaries[i].edges(), got.summaries[i].edges())
            << "machine " << i << " " << shape.name;
        EXPECT_EQ(base.comm.per_machine[i].words(),
                  got.comm.per_machine[i].words());
      }
      // k forks + the same coordinator draws on every shape.
      EXPECT_EQ(Rng(base_rng).next_u64(), rng.next_u64()) << shape.name;
    }
  }
}

TEST(ThreadInvariance, VcIsIdenticalAcrossPoolShapes) {
  const PeelingVcCoreset coreset;
  const std::vector<PoolShape> shapes = pool_shapes();
  for (std::uint64_t seed : {4u, 5u}) {
    Rng gen(seed);
    const EdgeList el = gnp(300, 6.0 / 300, gen);
    Rng base_rng(seed);
    const VcProtocolResult base =
        run_vc_protocol(el, kMachines, coreset, base_rng);
    for (const PoolShape& shape : shapes) {
      Rng rng(seed);
      const VcProtocolResult got =
          run_vc_protocol(el, kMachines, coreset, rng, shape.get());
      EXPECT_EQ(base.solution.vertices(), got.solution.vertices())
          << "seed=" << seed << " " << shape.name;
      EXPECT_EQ(base.comm.total_words(), got.comm.total_words());
      EXPECT_EQ(Rng(base_rng).next_u64(), rng.next_u64()) << shape.name;
    }
  }
}

TEST(ThreadInvariance, GroupedVcIsIdenticalAcrossPoolShapes) {
  const std::vector<PoolShape> shapes = pool_shapes();
  for (std::uint64_t seed : {6u, 7u}) {
    Rng gen(seed);
    const EdgeList el = gnp(256, 0.04, gen);
    Rng base_rng(seed);
    const GroupedVcProtocolResult base =
        grouped_vc_protocol(el, kMachines, /*alpha=*/8.0, base_rng);
    for (const PoolShape& shape : shapes) {
      Rng rng(seed);
      const GroupedVcProtocolResult got = grouped_vc_protocol(
          el, kMachines, /*alpha=*/8.0, rng, shape.get());
      EXPECT_EQ(base.solution.vertices(), got.solution.vertices())
          << "seed=" << seed << " " << shape.name;
      EXPECT_EQ(base.comm.total_words(), got.comm.total_words());
      EXPECT_EQ(Rng(base_rng).next_u64(), rng.next_u64()) << shape.name;
    }
  }
}

TEST(ThreadInvariance, WeightedDriversAreIdenticalAcrossPoolShapes) {
  const std::vector<PoolShape> shapes = pool_shapes();
  for (std::uint64_t seed : {8u, 9u}) {
    Rng gen(seed);
    WeightedEdgeList w;
    w.num_vertices = 120;
    for (int i = 0; i < 900; ++i) {
      const auto u = static_cast<VertexId>(gen.next_below(119));
      w.add(u, static_cast<VertexId>(u + 1), gen.uniform_real(0.5, 16.0));
    }
    const EdgeList el = gnp(200, 0.05, gen);
    VertexWeights weights(el.num_vertices());
    for (double& x : weights) x = gen.uniform_real(1.0, 64.0);

    Rng base_rng(seed);
    const WeightedMatchingProtocolResult base =
        weighted_matching_protocol(w, kMachines, 0, base_rng);
    Rng vc_base_rng(seed);
    const WeightedVcProtocolResult vc_base =
        weighted_vc_protocol(el, weights, kMachines, vc_base_rng);
    for (const PoolShape& shape : shapes) {
      Rng rng(seed);
      const WeightedMatchingProtocolResult got =
          weighted_matching_protocol(w, kMachines, 0, rng, shape.get());
      EXPECT_EQ(sorted_edges(base.solution), sorted_edges(got.solution))
          << "seed=" << seed << " " << shape.name;
      EXPECT_DOUBLE_EQ(base.matching_weight, got.matching_weight);
      EXPECT_EQ(base.comm.total_words(), got.comm.total_words());
      EXPECT_EQ(base.max_classes_per_machine, got.max_classes_per_machine);
      EXPECT_EQ(Rng(base_rng).next_u64(), rng.next_u64()) << shape.name;

      Rng vc_rng(seed);
      const WeightedVcProtocolResult vc_got = weighted_vc_protocol(
          el, weights, kMachines, vc_rng, shape.get());
      EXPECT_EQ(vc_base.solution.vertices(), vc_got.solution.vertices())
          << "seed=" << seed << " " << shape.name;
      EXPECT_DOUBLE_EQ(vc_base.cover_cost, vc_got.cover_cost);
      EXPECT_EQ(vc_base.weight_classes, vc_got.weight_classes);
      EXPECT_EQ(Rng(vc_base_rng).next_u64(), vc_rng.next_u64()) << shape.name;
    }
  }
}

}  // namespace
}  // namespace rcc
