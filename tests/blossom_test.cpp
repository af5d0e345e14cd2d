#include "matching/blossom.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/warm_start.hpp"
#include "util/rng.hpp"
#include "util/workspace.hpp"

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

/// Frozen copy of the unseeded solver as it was before the search routine
/// took a root set: greedy initialization, then one single-root search per
/// free vertex in id order, with Hungarian pruning. The production solver
/// must return the same mates: greedy_match and the weighted class solves
/// depend on which maximum matching they get.
std::vector<VertexId> frozen_unseeded_mates(const Graph& g, bool prune) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> mate(n, kInvalidVertex);
  std::vector<VertexId> parent(n, kInvalidVertex);
  std::vector<VertexId> base(n);
  for (VertexId v = 0; v < n; ++v) base[v] = v;
  std::vector<char> used(n, 0);
  std::vector<char> on_path(n, 0);
  std::vector<char> dead(n, 0);
  std::vector<VertexId> queue;
  std::vector<VertexId> touched;
  std::vector<VertexId> path_marked;
  std::vector<VertexId> merged;
  const auto find = [&](VertexId v) {
    while (base[v] != v) {
      base[v] = base[base[v]];
      v = base[v];
    }
    return v;
  };
  const auto lca = [&](VertexId a, VertexId b) {
    path_marked.clear();
    VertexId x = a;
    for (;;) {
      x = find(x);
      on_path[x] = 1;
      path_marked.push_back(x);
      if (mate[x] == kInvalidVertex) break;
      x = parent[mate[x]];
    }
    VertexId y = b;
    for (;;) {
      y = find(y);
      if (on_path[y]) break;
      y = parent[mate[y]];
    }
    for (VertexId v : path_marked) on_path[v] = 0;
    return y;
  };
  const auto mark_path = [&](VertexId v, VertexId b, VertexId child) {
    merged.clear();
    for (VertexId bv = find(v); bv != b; bv = find(v)) {
      const VertexId mv = mate[v];
      merged.push_back(bv);
      merged.push_back(find(mv));
      if (!used[mv]) {
        used[mv] = 1;
        touched.push_back(mv);
        queue.push_back(mv);
      }
      parent[v] = child;
      touched.push_back(v);
      child = mv;
      v = parent[mv];
    }
    for (VertexId root : merged) base[root] = b;
  };
  const auto find_path = [&](VertexId root) -> VertexId {
    for (VertexId v : touched) {
      parent[v] = kInvalidVertex;
      used[v] = 0;
      base[v] = v;
    }
    touched.clear();
    used[root] = 1;
    touched.push_back(root);
    queue.assign(1, root);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const VertexId v = queue[head];
      for (VertexId to : g.neighbors(v)) {
        if (prune && dead[to]) continue;
        if (find(v) == find(to) || mate[v] == to) continue;
        if (to == root ||
            (mate[to] != kInvalidVertex && parent[mate[to]] != kInvalidVertex)) {
          const VertexId cur_base = lca(v, to);
          mark_path(v, cur_base, to);
          mark_path(to, cur_base, v);
        } else if (parent[to] == kInvalidVertex) {
          parent[to] = v;
          touched.push_back(to);
          if (mate[to] == kInvalidVertex) return to;
          used[mate[to]] = 1;
          touched.push_back(mate[to]);
          queue.push_back(mate[to]);
        }
      }
    }
    return kInvalidVertex;
  };
  for (VertexId v = 0; v < n; ++v) {
    if (mate[v] != kInvalidVertex) continue;
    for (VertexId w : g.neighbors(v)) {
      if (mate[w] == kInvalidVertex && w != v) {
        mate[v] = w;
        mate[w] = v;
        break;
      }
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    if (mate[v] != kInvalidVertex || g.degree(v) == 0) continue;
    VertexId end = find_path(v);
    if (end == kInvalidVertex) {
      if (prune) {
        for (VertexId t : touched) dead[t] = 1;
      }
      continue;
    }
    while (end != kInvalidVertex) {
      const VertexId pv = parent[end];
      const VertexId next = mate[pv];
      mate[end] = pv;
      mate[pv] = end;
      end = next;
    }
  }
  return mate;
}

std::vector<VertexId> mates_of(const Matching& m) {
  std::vector<VertexId> mates(m.num_vertices());
  for (VertexId v = 0; v < m.num_vertices(); ++v) mates[v] = m.mate(v);
  return mates;
}

/// Seeds for the forest finish: a Karp-Sipser matching (few free
/// vertices, as in the union kernel), `maximum` with 1-8 random edges
/// removed (several trees grow at once), and a random maximal matching
/// (many trees).
std::vector<Matching> warm_seeds(const Graph& g, const EdgeList& el,
                                 const Matching& maximum, Rng& rng) {
  std::vector<Matching> seeds;
  Matching ks;
  karp_sipser_into(ks, g);
  seeds.push_back(std::move(ks));
  Matching holed = maximum;
  const EdgeList maximum_edges = maximum.to_edge_list();
  std::vector<Edge> matched(maximum_edges.begin(), maximum_edges.end());
  rng.shuffle(matched);
  const std::size_t holes =
      std::min<std::size_t>(matched.size(), 1 + rng.next_below(8));
  for (std::size_t i = 0; i < holes; ++i) holed.unmatch(matched[i].u);
  seeds.push_back(std::move(holed));
  seeds.push_back(greedy_maximal_matching(el, GreedyOrder::kRandom, rng));
  return seeds;
}

/// Runs the warm-started solve from every seed, with and without the exact
/// size as `size_bound`, and checks size, validity and containment.
void expect_forest_finish_reaches(const Graph& g, const EdgeList& el,
                                  std::size_t expected, Rng& rng,
                                  const std::string& label) {
  const Matching maximum = blossom_maximum_matching(g);
  ASSERT_EQ(maximum.size(), expected) << label;
  MachineScratch scratch;
  const std::vector<Matching> seeds = warm_seeds(g, el, maximum, rng);
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    for (const std::size_t bound : {kNoSizeBound, expected}) {
      const Matching m =
          blossom_maximum_matching(g, &scratch, true, &seeds[s], bound);
      EXPECT_EQ(m.size(), expected) << label << " seed kind " << s;
      EXPECT_TRUE(m.valid()) << label << " seed kind " << s;
      EXPECT_TRUE(m.subset_of(el)) << label << " seed kind " << s;
    }
  }
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
    // The seeds draw from their own generator, so `rng` draws the same 60
    // graphs as the unseeded sweep always has (graph 19 included).
    Rng seed_rng(1000 + i);
    expect_forest_finish_reaches(g, el, expected, seed_rng,
                                 "graph " + std::to_string(i));
  }
}

TEST(Blossom, UnseededSolveMatchesFrozenSolverMateForMate) {
  Rng rng(23);
  for (int i = 0; i < 60; ++i) {
    const EdgeList el = i % 2 == 0 ? gnm(600, 900, rng)
                                   : gnp(200, 4.0 / 200, rng);
    const Graph g(el);
    for (const bool prune : {true, false}) {
      EXPECT_EQ(mates_of(blossom_maximum_matching(g, nullptr, prune)),
                frozen_unseeded_mates(g, prune))
          << "graph " << i << " prune " << prune;
    }
  }
}

TEST(Blossom, ForestJoinsTwoTreesThroughTheirBlossoms) {
  // Two triangles, each with a free apex (0 and 3) and a matched base edge
  // (1-2 and 4-5), joined by the edge 1-4. The first pass grows both trees
  // at once: each apex labels 1 (resp. 4) odd and contracts its triangle,
  // which makes 1 and 4 even inside a blossom of each tree. The edge 1-4
  // then joins even vertices of two trees, and flipping both halves through
  // the blossoms gives the perfect matching 0-2, 1-4, 3-5.
  EdgeList el(6);
  el.add(0, 1);
  el.add(0, 2);
  el.add(1, 2);
  el.add(3, 4);
  el.add(3, 5);
  el.add(4, 5);
  el.add(1, 4);
  const Graph g(el);
  Matching seed(6);
  seed.match(1, 2);
  seed.match(4, 5);
  for (const std::size_t bound : {kNoSizeBound, std::size_t{3}}) {
    const Matching m =
        blossom_maximum_matching(g, nullptr, true, &seed, bound);
    EXPECT_EQ(m.size(), 3u);
    EXPECT_TRUE(m.valid());
    EXPECT_TRUE(m.subset_of(el));
    EXPECT_EQ(m.mate(1), 4u);
    EXPECT_EQ(m.mate(0), 2u);
    EXPECT_EQ(m.mate(3), 5u);
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
  const Graph g(el);
  const Matching m = blossom_maximum_matching(g);
  const std::size_t expected = brute_force_mm(el);
  EXPECT_EQ(m.size(), expected);
  EXPECT_TRUE(m.valid());
  EXPECT_TRUE(m.subset_of(el));
  expect_forest_finish_reaches(g, el, expected, rng,
                               "seed " + std::to_string(GetParam()));
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
