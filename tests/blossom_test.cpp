#include "matching/blossom.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

/// Brute-force maximum matching size by edge-subset recursion (small m).
std::size_t brute_force_mm(const EdgeList& edges) {
  std::size_t best = 0;
  std::vector<bool> used(edges.num_vertices(), false);
  auto rec = [&](auto&& self, std::size_t i, std::size_t size) -> void {
    best = std::max(best, size);
    if (i == edges.num_edges()) return;
    self(self, i + 1, size);
    const Edge& e = edges[i];
    if (!used[e.u] && !used[e.v]) {
      used[e.u] = used[e.v] = true;
      self(self, i + 1, size + 1);
      used[e.u] = used[e.v] = false;
    }
  };
  rec(rec, 0, 0);
  return best;
}

/// Textbook Edmonds (Gabow's presentation): after every contraction it
/// re-bases every vertex of the blossom in one O(n) sweep, so its tree walks
/// always see the bases as they were before the contraction. Only the size
/// of its result is compared.
std::size_t textbook_edmonds_size(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> mate(n, kInvalidVertex);
  std::vector<VertexId> parent(n);
  std::vector<VertexId> base(n);
  std::vector<char> used(n);
  std::vector<char> in_blossom(n);
  const auto lca = [&](VertexId a, VertexId b) {
    std::vector<char> seen(n, 0);
    for (;;) {
      a = base[a];
      seen[a] = 1;
      if (mate[a] == kInvalidVertex) break;
      a = parent[mate[a]];
    }
    for (;;) {
      b = base[b];
      if (seen[b]) return b;
      b = parent[mate[b]];
    }
  };
  const auto mark = [&](VertexId v, VertexId b, VertexId child) {
    while (base[v] != b) {
      in_blossom[base[v]] = in_blossom[base[mate[v]]] = 1;
      parent[v] = child;
      child = mate[v];
      v = parent[mate[v]];
    }
  };
  const auto find_path = [&](VertexId root) -> VertexId {
    std::fill(used.begin(), used.end(), 0);
    std::fill(parent.begin(), parent.end(), kInvalidVertex);
    for (VertexId v = 0; v < n; ++v) base[v] = v;
    used[root] = 1;
    std::vector<VertexId> queue{root};
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const VertexId v = queue[head];
      for (VertexId to : g.neighbors(v)) {
        if (base[v] == base[to] || mate[v] == to) continue;
        if (to == root || (mate[to] != kInvalidVertex &&
                           parent[mate[to]] != kInvalidVertex)) {
          const VertexId b = lca(v, to);
          std::fill(in_blossom.begin(), in_blossom.end(), 0);
          mark(v, b, to);
          mark(to, b, v);
          for (VertexId i = 0; i < n; ++i) {
            if (!in_blossom[base[i]]) continue;
            base[i] = b;
            if (!used[i]) {
              used[i] = 1;
              queue.push_back(i);
            }
          }
        } else if (parent[to] == kInvalidVertex) {
          parent[to] = v;
          if (mate[to] == kInvalidVertex) return to;
          used[mate[to]] = 1;
          queue.push_back(mate[to]);
        }
      }
    }
    return kInvalidVertex;
  };
  std::size_t size = 0;
  for (VertexId root = 0; root < n; ++root) {
    if (mate[root] != kInvalidVertex) continue;
    for (VertexId v = find_path(root); v != kInvalidVertex;) {
      const VertexId pv = parent[v];
      const VertexId next = mate[pv];
      mate[v] = pv;
      mate[pv] = v;
      v = next;
    }
  }
  for (VertexId v = 0; v < n; ++v) size += mate[v] != kInvalidVertex;
  return size / 2;
}

TEST(Blossom, ContractionInsideSubBlossomsMatchesTextbookEdmonds) {
  // Sparse random graphs nest blossoms often. A contraction whose tree walk
  // starts inside an earlier sub-blossom must re-point the tree edges all
  // the way out of it; cutting that walk short once left a parent cycle
  // that augment looped on forever (graph 19 of this sweep hung).
  Rng rng(21);
  for (int i = 0; i < 60; ++i) {
    const EdgeList el = gnm(600, 900, rng);
    const Graph g(el);
    const std::size_t expected = textbook_edmonds_size(g);
    for (const bool prune : {true, false}) {
      const Matching m = blossom_maximum_matching(g, nullptr, prune);
      EXPECT_EQ(m.size(), expected) << "graph " << i << " prune " << prune;
      EXPECT_TRUE(m.valid());
      EXPECT_TRUE(m.subset_of(el));
    }
  }
}

TEST(Blossom, OddCycleMatchesFloorHalf) {
  for (VertexId n : {3u, 5u, 7u, 9u, 11u}) {
    const Matching m = blossom_maximum_matching(Graph(cycle(n)));
    EXPECT_EQ(m.size(), n / 2) << "cycle " << n;
    EXPECT_TRUE(m.valid());
  }
}

TEST(Blossom, EvenCyclePerfect) {
  for (VertexId n : {4u, 6u, 10u}) {
    EXPECT_EQ(blossom_maximum_matching(Graph(cycle(n))).size(), n / 2);
  }
}

TEST(Blossom, PathMatching) {
  EXPECT_EQ(blossom_maximum_matching(Graph(path(2))).size(), 1u);
  EXPECT_EQ(blossom_maximum_matching(Graph(path(5))).size(), 2u);
  EXPECT_EQ(blossom_maximum_matching(Graph(path(6))).size(), 3u);
}

TEST(Blossom, TriangleWithPendants) {
  // Triangle 0-1-2 plus pendants 3 on 0 and 4 on 1: maximum matching = 2.
  EdgeList el(5);
  el.add(0, 1);
  el.add(1, 2);
  el.add(0, 2);
  el.add(0, 3);
  el.add(1, 4);
  EXPECT_EQ(blossom_maximum_matching(Graph(el)).size(), 2u);
}

TEST(Blossom, PetersenGraphHasPerfectMatching) {
  // Standard Petersen construction: outer 5-cycle, inner 5-star polygon,
  // spokes. 10 vertices, 15 edges, perfect matching exists.
  EdgeList el(10);
  for (VertexId i = 0; i < 5; ++i) el.add(i, (i + 1) % 5);
  for (VertexId i = 0; i < 5; ++i) el.add(5 + i, 5 + (i + 2) % 5);
  for (VertexId i = 0; i < 5; ++i) el.add(i, 5 + i);
  const Matching m = blossom_maximum_matching(Graph(el));
  EXPECT_EQ(m.size(), 5u);
  EXPECT_TRUE(m.valid());
}

TEST(Blossom, TwoTrianglesJoinedByEdge) {
  // Triangles {0,1,2} and {3,4,5} plus bridge 2-3: perfect matching size 3.
  EdgeList el(6);
  el.add(0, 1);
  el.add(1, 2);
  el.add(0, 2);
  el.add(3, 4);
  el.add(4, 5);
  el.add(3, 5);
  el.add(2, 3);
  EXPECT_EQ(blossom_maximum_matching(Graph(el)).size(), 3u);
}

TEST(Blossom, EmptyAndSingleEdge) {
  EXPECT_EQ(blossom_maximum_matching(Graph(EdgeList(4))).size(), 0u);
  EdgeList el(2);
  el.add(0, 1);
  EXPECT_EQ(blossom_maximum_matching(Graph(el)).size(), 1u);
}

class BlossomVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(BlossomVsBruteForce, AgreesOnSmallRandomGraphs) {
  Rng rng(GetParam());
  const VertexId n = 12;
  const EdgeList el = gnp(n, 0.25, rng);
  if (el.num_edges() > 24) GTEST_SKIP() << "brute force too large";
  const Matching m = blossom_maximum_matching(Graph(el));
  EXPECT_EQ(m.size(), brute_force_mm(el));
  EXPECT_TRUE(m.valid());
  EXPECT_TRUE(m.subset_of(el));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlossomVsBruteForce, ::testing::Range(1, 30));

class BlossomOddStructures : public ::testing::TestWithParam<int> {};

TEST_P(BlossomOddStructures, DenseRandomGraphNearPerfect) {
  // G(n, 8/n) with even n has a near-perfect matching w.h.p.; we assert at
  // least 90% of the vertices get matched (blossoms are exercised heavily).
  Rng rng(GetParam() + 100);
  const VertexId n = 200;
  const EdgeList el = gnp(n, 8.0 / n, rng);
  const Matching m = blossom_maximum_matching(Graph(el));
  EXPECT_GE(m.size() * 2, static_cast<std::size_t>(0.9 * n));
  EXPECT_TRUE(m.valid());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlossomOddStructures, ::testing::Range(1, 6));

}  // namespace
}  // namespace rcc
