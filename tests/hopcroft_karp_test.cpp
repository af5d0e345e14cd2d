#include "matching/hopcroft_karp.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "matching/blossom.hpp"
#include "matching/greedy.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

TEST(HopcroftKarp, PerfectMatchingOnPlantedInstance) {
  Rng rng(1);
  const EdgeList el = random_perfect_matching(500, rng);
  const Matching m = hopcroft_karp(bipartite_graph(el, 500));
  EXPECT_EQ(m.size(), 500u);
  EXPECT_TRUE(m.valid());
  EXPECT_TRUE(m.subset_of(el));
}

TEST(HopcroftKarp, CompleteBipartiteMinSide) {
  const EdgeList el = complete_bipartite(7, 12);
  const Matching m = hopcroft_karp(bipartite_graph(el, 7));
  EXPECT_EQ(m.size(), 7u);
}

TEST(HopcroftKarp, EmptyGraph) {
  const Matching m = hopcroft_karp(bipartite_graph(EdgeList(10), 5));
  EXPECT_EQ(m.size(), 0u);
}

TEST(HopcroftKarp, KnownSmallInstance) {
  // L = {0,1,2}, R = {3,4,5}. 0-3, 0-4, 1-3, 2-5. Max matching = 3.
  EdgeList el(6);
  el.add(0, 4);
  el.add(0, 3);
  el.add(1, 3);
  el.add(2, 5);
  const Matching m = hopcroft_karp(bipartite_graph(el, 3));
  EXPECT_EQ(m.size(), 3u);
}

TEST(HopcroftKarp, HallViolatorLimitsMatching) {
  // Three left vertices all adjacent only to one right vertex.
  EdgeList el(4);
  el.add(0, 3);
  el.add(1, 3);
  el.add(2, 3);
  const Matching m = hopcroft_karp(bipartite_graph(el, 3));
  EXPECT_EQ(m.size(), 1u);
}

TEST(HopcroftKarp, StarPlusMatchingRequiresAugmentation) {
  // Greedy init may match 0-5 first; HK must recover the perfect matching.
  EdgeList el(10);
  for (VertexId r = 5; r < 10; ++r) el.add(0, r);
  el.add(1, 5);
  el.add(2, 6);
  el.add(3, 7);
  el.add(4, 8);
  const Matching m = hopcroft_karp(bipartite_graph(el, 5));
  EXPECT_EQ(m.size(), 5u);
}

TEST(HopcroftKarp, ParallelEdgesHandled) {
  EdgeList el(4);
  el.add(0, 2);
  el.add(0, 2);
  el.add(1, 3);
  const Matching m = hopcroft_karp(bipartite_graph(el, 2));
  EXPECT_EQ(m.size(), 2u);
}

TEST(HopcroftKarpDeathTest, RequiresBipartitionTag) {
  EXPECT_DEATH(hopcroft_karp(Graph(path(4))), "RCC_CHECK");
}

/// Frozen copy of the recursive Hopcroft-Karp (one recursion per BFS
/// layer) that the explicit-stack DFS replaced. Without a warm start the
/// production solver must return exactly its matching.
Matching reference_recursive_hk(const Graph& g) {
  constexpr VertexId kInf = std::numeric_limits<VertexId>::max();
  const VertexId n = g.num_vertices();
  const VertexId nL = g.bipartition()->left_size;
  std::vector<VertexId> mate(n, kInvalidVertex);
  std::vector<VertexId> dist(nL);
  std::vector<VertexId> active;
  for (VertexId u = 0; u < nL; ++u) {
    if (g.degree(u) > 0) active.push_back(u);
  }
  const auto bfs = [&]() {
    std::vector<VertexId> queue;
    for (const VertexId u : active) {
      dist[u] = mate[u] == kInvalidVertex ? 0 : kInf;
      if (mate[u] == kInvalidVertex) queue.push_back(u);
    }
    bool found = false;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const VertexId u = queue[head];
      for (const VertexId v : g.neighbors(u)) {
        const VertexId next = mate[v];
        if (next == kInvalidVertex) {
          found = true;
        } else if (dist[next] == kInf) {
          dist[next] = dist[u] + 1;
          queue.push_back(next);
        }
      }
    }
    return found;
  };
  const auto dfs = [&](auto&& self, VertexId u) -> bool {
    for (const VertexId v : g.neighbors(u)) {
      const VertexId next = mate[v];
      if (next == kInvalidVertex ||
          (dist[next] == dist[u] + 1 && self(self, next))) {
        mate[u] = v;
        mate[v] = u;
        return true;
      }
    }
    dist[u] = kInf;
    return false;
  };
  while (bfs()) {
    for (const VertexId u : active) {
      if (mate[u] == kInvalidVertex) dfs(dfs, u);
    }
  }
  Matching out(n);
  for (const VertexId u : active) {
    if (mate[u] != kInvalidVertex) out.match(u, mate[u]);
  }
  return out;
}

TEST(HopcroftKarp, IterativeDfsReturnsTheRecursiveSolversMatching) {
  for (int seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    for (const double p : {0.003, 0.01, 0.04}) {
      const VertexId side = 150;
      EdgeList el = random_bipartite(side, side, p, rng);
      el.append(random_perfect_matching(side, rng));  // long alternating paths
      const Graph g = bipartite_graph(el, side);
      const Matching expected = reference_recursive_hk(g);
      const Matching got = hopcroft_karp(g);
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        ASSERT_EQ(got.mate(v), expected.mate(v))
            << "seed " << seed << " p " << p << " vertex " << v;
      }
    }
  }
}

TEST(HopcroftKarp, WarmStartLeavingOneLongPathDoesNotOverflowTheStack) {
  // Path l_0 - r_0 - l_1 - r_1 - ... - l_{N-1} - r_{N-1} (left ids [0, N),
  // right ids [N, 2N)). The warm start matches every r_i to l_{i+1}, so
  // only the two ends are free and the one augmenting path is the whole
  // path: N DFS layers, deeper than a thread stack holds as recursion.
  constexpr VertexId kN = 1000000;
  EdgeList el(2 * kN);
  Matching warm(2 * kN);
  for (VertexId i = 0; i < kN; ++i) {
    el.add(i, kN + i);
    if (i + 1 < kN) {
      el.add(i + 1, kN + i);
      warm.match(i + 1, kN + i);
    }
  }
  const Graph g = bipartite_graph(el, kN);
  Matching result;
  std::thread solver([&] { hopcroft_karp_into(result, g, nullptr, &warm); });
  solver.join();
  EXPECT_EQ(result.size(), std::size_t{kN});
  EXPECT_TRUE(result.valid());
  for (VertexId i = 0; i < kN; ++i) ASSERT_EQ(result.mate(i), kN + i);
}

TEST(HopcroftKarp, WarmStartAndSizeBoundKeepTheMaximumSize) {
  for (int seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const VertexId side = 200;
    const EdgeList el = random_bipartite(side, side, 0.01, rng);
    const Graph g = bipartite_graph(el, side);
    const std::size_t maximum = hopcroft_karp(g).size();
    const Matching seed_matching =
        greedy_maximal_matching(el, GreedyOrder::kGiven, rng);
    const Matching warm = hopcroft_karp(g, nullptr, &seed_matching);
    EXPECT_EQ(warm.size(), maximum) << "seed " << seed;
    EXPECT_TRUE(warm.subset_of(el));
    // A bound equal to the maximum ends the solve there; a looser bound
    // never stops it short.
    EXPECT_EQ(hopcroft_karp(g, nullptr, &seed_matching, maximum).size(),
              maximum);
    EXPECT_EQ(hopcroft_karp(g, nullptr, nullptr, maximum + 3).size(),
              maximum);
    Matching in_place = seed_matching;
    hopcroft_karp_into(in_place, g, nullptr, &in_place);
    EXPECT_EQ(in_place.size(), maximum);
  }
}

class HkVsBlossom : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(HkVsBlossom, AgreeOnRandomBipartiteGraphs) {
  const auto [seed, p] = GetParam();
  Rng rng(seed);
  const VertexId side = 120;
  const EdgeList el = random_bipartite(side, side, p, rng);
  const Matching hk = hopcroft_karp(bipartite_graph(el, side));
  const Matching bl = blossom_maximum_matching(Graph(el));
  EXPECT_EQ(hk.size(), bl.size());
  EXPECT_TRUE(hk.valid());
  EXPECT_TRUE(bl.valid());
  EXPECT_TRUE(hk.subset_of(el));
  EXPECT_TRUE(bl.subset_of(el));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HkVsBlossom,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(0.005, 0.02, 0.08)));

}  // namespace
}  // namespace rcc
