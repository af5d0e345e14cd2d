// The certified solve's helpers on their own: the Karp-Sipser seed and its
// core count certificate, then the certificate as a stop inside the exact solvers
// and the certified solve built on both. A stop that fired below the
// maximum would silently shrink the matching, so every solve here is
// checked against the exhaustive blossom (no Hungarian-tree pruning, no
// seed, no bound), and against a brute-force maximum on multigraphs.
#include "matching/warm_start.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "coreset/compose.hpp"
#include "graph/generators.hpp"
#include "matching/blossom.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/max_matching.hpp"
#include "util/rng.hpp"
#include "util/workspace.hpp"

namespace rcc {
namespace {

std::size_t exhaustive_size(const Graph& g) {
  return blossom_maximum_matching(g, nullptr, /*prune_hungarian_trees=*/false)
      .size();
}

/// Maximum matching by exhaustive search (tiny graphs only): the lowest
/// vertex with an edge either stays unmatched or takes one of its edges.
/// Self-loops never match and parallel edges are tried once each.
std::size_t brute_force_maximum(const std::vector<Edge>& edges,
                                std::vector<char>& used, std::size_t from) {
  while (from < edges.size() &&
         (edges[from].is_loop() || used[edges[from].u] || used[edges[from].v])) {
    ++from;
  }
  if (from == edges.size()) return 0;
  const Edge e = edges[from];
  const std::size_t skip = brute_force_maximum(edges, used, from + 1);
  used[e.u] = used[e.v] = 1;
  const std::size_t take = 1 + brute_force_maximum(edges, used, from + 1);
  used[e.u] = used[e.v] = 0;
  return std::max(skip, take);
}

/// (n - #odd connected components) / 2, the Tutte-Berge bound with S = {}
/// on all of g. Isolated vertices are odd components; parallel edges and
/// self-loops change nothing.
std::size_t odd_component_bound(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<char> seen(n, 0);
  std::vector<VertexId> queue;
  std::size_t odd = 0;
  for (VertexId root = 0; root < n; ++root) {
    if (seen[root]) continue;
    seen[root] = 1;
    queue.assign(1, root);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (const VertexId w : g.neighbors(queue[head])) {
        if (!seen[w]) {
          seen[w] = 1;
          queue.push_back(w);
        }
      }
    }
    odd += queue.size() & 1;
  }
  return (n - odd) / 2;
}

/// Frozen copy of karp_sipser_into as it was before its live degrees could
/// come from the CSR offsets: every row is scanned for self-loops.
void row_scanning_karp_sipser(Matching& out, const Graph& g) {
  const VertexId n = g.num_vertices();
  constexpr VertexId kTaken = kInvalidVertex;
  std::vector<VertexId> live(n);
  std::vector<VertexId> queue(std::size_t{n} + 1);
  std::size_t tail = 0;
  const std::size_t* const off = g.offsets_data();
  const VertexId* const adj = g.adjacency_data();
  out.reset(n);
  for (VertexId v = 0; v < n; ++v) {
    VertexId d = 0;
    for (std::size_t i = off[v]; i < off[v + 1]; ++i) d += adj[i] != v;
    live[v] = d;
    queue[tail] = v;
    tail += d == 1;
  }
  const auto take = [&](VertexId a, VertexId b) {
    out.match(a, b);
    live[a] = kTaken;
    live[b] = kTaken;
    for (const VertexId x : {a, b}) {
      for (std::size_t i = off[x]; i < off[x + 1]; ++i) {
        const VertexId y = adj[i];
        const bool alive = live[y] != kTaken;
        const VertexId d = live[y] - alive;
        live[y] = d;
        queue[tail] = y;
        tail += alive & (d == 1);
      }
    }
  };
  std::size_t head = 0;
  VertexId next = 0;
  for (;;) {
    while (head < tail) {
      const VertexId v = queue[head++];
      if (live[v] == kTaken) continue;
      for (std::size_t i = off[v]; i < off[v + 1]; ++i) {
        const VertexId w = adj[i];
        if (w != v && live[w] != kTaken) {
          take(v, w);
          break;
        }
      }
    }
    while (next < n && (live[next] == kTaken || live[next] == 0)) ++next;
    if (next == n) break;
    VertexId best = kInvalidVertex;
    VertexId best_degree = kTaken;
    for (std::size_t i = off[next]; i < off[next + 1]; ++i) {
      const VertexId w = adj[i];
      if (w != next && live[w] < best_degree) {
        best = w;
        best_degree = live[w];
      }
    }
    take(next, best);
  }
}

/// A gnm graph with every third edge doubled and a self-loop on every
/// `loop_every`-th vertex (0 = none).
std::vector<Edge> noisy_gnm(VertexId n, std::size_t m, VertexId loop_every,
                            Rng& rng) {
  const EdgeList base = gnm(n, m, rng);
  std::vector<Edge> edges(base.begin(), base.end());
  for (std::size_t i = 0; i < base.num_edges(); i += 3) edges.push_back(base[i]);
  if (loop_every > 0) {
    for (VertexId v = 0; v < n; v += loop_every) edges.push_back(Edge{v, v});
  }
  rng.shuffle(edges);
  return edges;
}

bool same_mates(const Matching& a, const Matching& b) {
  if (a.num_vertices() != b.num_vertices()) return false;
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    if (a.mate(v) != b.mate(v)) return false;
  }
  return true;
}

/// K_{1,3} forest as a bipartite graph: centers [0, count), leaves after.
EdgeList claw_forest(VertexId count) {
  EdgeList el(4 * count);
  for (VertexId c = 0; c < count; ++c) {
    for (VertexId leaf = 0; leaf < 3; ++leaf) el.add(c, count + 3 * c + leaf);
  }
  return el;
}

/// A 5-cycle (0..4) with the pendant path 0 - 5 - 6 and a second leaf 7 on
/// 5. Connected on 8 vertices, so the S = {} bound is 4; S = {5} leaves the
/// odd cycle and two isolated leaves, so the maximum is 3.
EdgeList blossom_with_pendant_path() {
  EdgeList el(8);
  for (VertexId v = 0; v < 5; ++v) el.add(v, (v + 1) % 5);
  el.add(0, 5);
  el.add(5, 6);
  el.add(5, 7);
  return el;
}

/// A triangle whose vertex 0 also carries three leaves: S = {0} shows the
/// maximum is 2, against an S = {} bound of 3.
EdgeList blossom_with_leaves() {
  EdgeList el(6);
  el.add(0, 1);
  el.add(1, 2);
  el.add(2, 0);
  for (VertexId leaf = 3; leaf < 6; ++leaf) el.add(0, leaf);
  return el;
}

TEST(KarpSipser, IsAValidMaximalMatchingOfTheGraph) {
  for (int seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const EdgeList el = gnm(400, 300 + 40 * seed, rng);
    Matching m;
    karp_sipser_into(m, Graph(el));
    EXPECT_TRUE(m.valid());
    EXPECT_TRUE(m.subset_of(el));
    EXPECT_TRUE(m.maximal_in(el)) << "seed " << seed;
    EXPECT_LE(m.size(), exhaustive_size(Graph(el)));
  }
}

TEST(KarpSipser, DegreeOneRuleAloneSolvesForests) {
  // A forest always has a leaf, so the greedy step never runs: the seed is
  // a maximum matching.
  for (const EdgeList& forest :
       {path(9), star_forest(5, 3), claw_forest(6), star(11)}) {
    Matching m;
    karp_sipser_into(m, Graph(forest));
    EXPECT_EQ(m.size(), exhaustive_size(Graph(forest)));
  }
}

TEST(KarpSipser, ScratchReuseGivesTheSameMatching) {
  Rng rng(12);
  const EdgeList a = gnm(500, 900, rng);
  const EdgeList b = gnm(300, 400, rng);
  KarpSipserScratch scratch;
  Matching fresh_a;
  Matching fresh_b;
  karp_sipser_into(fresh_a, Graph(a));
  karp_sipser_into(fresh_b, Graph(b));
  Matching reused;
  karp_sipser_into(reused, Graph(a), &scratch);
  karp_sipser_into(reused, Graph(b), &scratch);
  for (VertexId v = 0; v < 300; ++v) EXPECT_EQ(reused.mate(v), fresh_b.mate(v));
  karp_sipser_into(reused, Graph(a), &scratch);
  for (VertexId v = 0; v < 500; ++v) EXPECT_EQ(reused.mate(v), fresh_a.mate(v));
}

TEST(KarpSipser, OffsetsInitMatchesTheRowScanningSeed) {
  // Without self-loops the seed reads its initial live degrees from the CSR
  // offsets; with them it scans the rows. Both must give the frozen
  // row-scanning seed mate for mate.
  KarpSipserScratch scratch;
  for (int seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    for (const VertexId loop_every : {VertexId{0}, VertexId{5}}) {
      const std::vector<Edge> edges =
          noisy_gnm(500, 300 + 60 * seed, loop_every, rng);
      const Graph g(EdgeSpan(edges.data(), edges.size(), 500));
      EXPECT_EQ(g.num_self_loops() == 0, loop_every == 0);
      Matching frozen;
      row_scanning_karp_sipser(frozen, g);
      Matching seeded;
      karp_sipser_into(seeded, g, &scratch);
      EXPECT_TRUE(same_mates(seeded, frozen))
          << "seed " << seed << " loops every " << loop_every;
      std::size_t certificate = 0;
      Matching certified;
      karp_sipser_into(certified, g, &scratch, nullptr, &certificate);
      EXPECT_TRUE(same_mates(certified, frozen))
          << "the certificate count changed the seed, seed " << seed;
    }
    // A bipartite-tagged graph (parallel edges doubled, no self-loops) reads
    // its live degrees from the offsets too; the tag changes only which
    // certificate is counted, never the seed.
    const EdgeList sides = random_bipartite(250, 250, 0.004 * seed, rng);
    std::vector<Edge> edges(sides.begin(), sides.end());
    for (std::size_t i = 0; i < sides.num_edges(); i += 3) {
      edges.push_back(sides[i]);
    }
    rng.shuffle(edges);
    const Graph tagged(EdgeSpan(edges.data(), edges.size(), 500),
                       Bipartition{250});
    ASSERT_TRUE(tagged.bipartition_consistent());
    Matching frozen;
    row_scanning_karp_sipser(frozen, tagged);
    std::size_t tagged_certificate = 0;
    for (std::size_t* certificate :
         {static_cast<std::size_t*>(nullptr), &tagged_certificate}) {
      Matching seeded;
      karp_sipser_into(seeded, tagged, &scratch, nullptr, certificate);
      EXPECT_TRUE(same_mates(seeded, frozen)) << "tagged, seed " << seed;
    }
    EXPECT_GE(tagged_certificate, exhaustive_size(tagged))
        << "tagged, seed " << seed;
  }
}

TEST(KarpSipserCertificate, BracketedByTheMaximumAndTheTutteBergeBound) {
  // Tiny multigraphs with parallel edges and self-loops, solved by brute
  // force: the certificate must never fall below the maximum (it would
  // certify a non-maximum seed). On these draws it is also no looser than
  // the S = {} bound on the whole graph; that is not a theorem for the
  // core count (two disjoint triangles certify 3 against a bound of 2),
  // only a pin that the count stays close on random tiny graphs.
  for (int seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const auto n = static_cast<VertexId>(4 + rng.next_below(9));
    const std::size_t universe = std::size_t{n} * (n - 1) / 2;
    const std::size_t m = rng.next_below(std::min<std::size_t>(universe, 14)) + 1;
    const std::vector<Edge> edges =
        noisy_gnm(n, m, static_cast<VertexId>(1 + rng.next_below(4)), rng);
    const Graph g(EdgeSpan(edges.data(), edges.size(), n));
    std::vector<char> used(n, 0);
    const std::size_t maximum = brute_force_maximum(edges, used, 0);

    std::size_t certificate = 0;
    Matching m_seed;
    karp_sipser_into(m_seed, g, nullptr, nullptr, &certificate);
    EXPECT_TRUE(m_seed.valid());
    EXPECT_LE(m_seed.size(), maximum) << "seed " << seed;
    EXPECT_GE(certificate, maximum) << "seed " << seed;
    EXPECT_LE(certificate, odd_component_bound(g)) << "seed " << seed;

    Matching piece;
    certified_maximum_matching_into(piece,
                                    EdgeSpan(edges.data(), edges.size(), n));
    EXPECT_EQ(piece.size(), maximum) << "seed " << seed;
    EXPECT_TRUE(piece.valid());
    EXPECT_TRUE(piece.subset_of(EdgeSpan(edges.data(), edges.size(), n)));
  }
}

TEST(KarpSipserCertificate, EqualsTheSeedOnForests) {
  // A forest always has a leaf, so the seed never takes a greedy step: the
  // core is empty and the certificate is the seed's own size.
  Rng rng(31);
  std::vector<EdgeList> forests{path(9), star_forest(5, 3), claw_forest(6),
                                star(11), path(1)};
  for (int i = 0; i < 10; ++i) {
    // Random recursive trees, some vertices left isolated.
    const auto n = static_cast<VertexId>(20 + 15 * i);
    EdgeList tree(n);
    for (VertexId v = 1; v < n; ++v) {
      if (rng.next_below(5) != 0) {
        tree.add(static_cast<VertexId>(rng.next_below(v)), v);
      }
    }
    forests.push_back(tree);
  }
  for (std::size_t i = 0; i < forests.size(); ++i) {
    const Graph g(forests[i]);
    std::size_t certificate = 0;
    Matching m;
    karp_sipser_into(m, g, nullptr, nullptr, &certificate);
    EXPECT_EQ(certificate, m.size()) << "forest " << i;
    EXPECT_EQ(m.size(), exhaustive_size(g)) << "forest " << i;
  }
}

/// Solves g with the certified solve into `out` and reports whether it ran
/// its exact finish: the finish's working state is the only scratch the
/// solve allocates beyond the seed's own.
bool certified_solve_finishes(Matching& out, const Graph& g) {
  WorkspaceStats seed_stats;
  MachineScratch seed_scratch(&seed_stats);
  Matching seed;
  std::size_t certificate = 0;
  karp_sipser_into(seed, g, &seed_scratch.state<KarpSipserScratch>(),
                   &seed_stats, &certificate);
  WorkspaceStats stats;
  MachineScratch scratch(&stats);
  certified_maximum_matching_into(out, g, &scratch);
  return stats.allocations.load() > seed_stats.allocations.load();
}

TEST(KarpSipserCertificate, CountsTheCoreNotItsOddComponents) {
  // Two disjoint triangles and a path 6 - 7 - 8 - 9: the degree-one
  // reductions match the path (2 edges) and stall on a core of 6 vertices,
  // so the certificate is 2 + 6 / 2 = 5. The core is two odd components,
  // so the maximum is 4: the seed reaches it, but only the certified
  // solve's finish can tell, and it must return the seed's 4.
  EdgeList el(10);
  for (VertexId o : {VertexId{0}, VertexId{3}}) {
    el.add(o, o + 1);
    el.add(o + 1, o + 2);
    el.add(o + 2, o);
  }
  el.add(6, 7);
  el.add(7, 8);
  el.add(8, 9);
  std::size_t certificate = 0;
  Matching m;
  karp_sipser_into(m, Graph(el), nullptr, nullptr, &certificate);
  EXPECT_EQ(certificate, 5u);
  EXPECT_EQ(m.size(), 4u);
  EXPECT_EQ(exhaustive_size(Graph(el)), 4u);
  Matching certified;
  EXPECT_TRUE(certified_solve_finishes(certified, Graph(el)));
  EXPECT_EQ(certified.size(), 4u);
  EXPECT_TRUE(same_mates(certified, m));
  // An even core: a 4-cycle beside an edge certifies 1 + 4 / 2 = 3.
  EdgeList even_core(6);
  for (VertexId v = 0; v < 4; ++v) even_core.add(v, (v + 1) % 4);
  even_core.add(4, 5);
  karp_sipser_into(m, Graph(even_core), nullptr, nullptr, &certificate);
  EXPECT_EQ(certificate, 3u);
  EXPECT_EQ(m.size(), 3u);
}

TEST(KarpSipserCertificate, CountsEachSideOfATaggedCore) {
  // K_{2,4} has no degree-one vertex, so the whole graph is the core. The
  // tag caps it at its 2 left vertices, which the seed reaches: the
  // certified solve returns the seed with no finish. Untagged, the same
  // core certifies 6 / 2 = 3.
  const EdgeList k24 = complete_bipartite(2, 4);
  std::size_t certificate = 0;
  Matching seed;
  const Graph tagged = bipartite_graph(k24, 2);
  karp_sipser_into(seed, tagged, nullptr, nullptr, &certificate);
  EXPECT_EQ(certificate, 2u);
  EXPECT_EQ(seed.size(), 2u);
  Matching certified;
  EXPECT_FALSE(certified_solve_finishes(certified, tagged));
  EXPECT_TRUE(same_mates(certified, seed));
  karp_sipser_into(seed, Graph(k24), nullptr, nullptr, &certificate);
  EXPECT_EQ(certificate, 3u);
  EXPECT_TRUE(certified_solve_finishes(certified, Graph(k24)));
  EXPECT_EQ(certified.size(), 2u);

  // An unbalanced core beside a pendant path: K_{3,5} on L = {0, 1, 2} and
  // R = {5, ..., 9}, and the path 3 - 10 - 4 - 11 (L, R, L, R). The
  // reductions match the path (2 edges) and stall on K_{3,5}, whose 3 left
  // vertices cap the certificate at 2 + 3 = 5, the maximum; untagged it is
  // 2 + 8 / 2 = 6.
  EdgeList unbalanced(12);
  for (VertexId u = 0; u < 3; ++u) {
    for (VertexId v = 5; v < 10; ++v) unbalanced.add(u, v);
  }
  unbalanced.add(3, 10);
  unbalanced.add(10, 4);
  unbalanced.add(4, 11);
  const Graph sided = bipartite_graph(unbalanced, 5);
  karp_sipser_into(seed, sided, nullptr, nullptr, &certificate);
  EXPECT_EQ(certificate, 5u);
  EXPECT_EQ(seed.size(), 5u);
  EXPECT_FALSE(certified_solve_finishes(certified, sided));
  EXPECT_TRUE(same_mates(certified, seed));
  karp_sipser_into(seed, Graph(unbalanced), nullptr, nullptr, &certificate);
  EXPECT_EQ(certificate, 6u);
  EXPECT_TRUE(certified_solve_finishes(certified, Graph(unbalanced)));
  EXPECT_EQ(certified.size(), 5u);
}

TEST(KarpSipserCertificate, SideCountBoundsTaggedMultigraphs) {
  // Tiny tagged bipartite multigraphs (every edge drawn with replacement,
  // so parallel edges are common), solved by brute force: the side count
  // must never fall below the maximum, and it is never looser than the
  // untagged count of the same core, min(a, b) <= (a + b) / 2.
  for (int seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const auto left = static_cast<VertexId>(1 + rng.next_below(5));
    const auto right = static_cast<VertexId>(1 + rng.next_below(5));
    const std::size_t m = 1 + rng.next_below(12);
    EdgeList el(left + right);
    for (std::size_t i = 0; i < m; ++i) {
      el.add(static_cast<VertexId>(rng.next_below(left)),
             left + static_cast<VertexId>(rng.next_below(right)));
    }
    std::vector<Edge> edges(el.begin(), el.end());
    std::vector<char> used(left + right, 0);
    const std::size_t maximum = brute_force_maximum(edges, used, 0);

    std::size_t certificate = 0;
    Matching m_seed;
    karp_sipser_into(m_seed, bipartite_graph(el, left), nullptr, nullptr,
                     &certificate);
    std::size_t untagged = 0;
    karp_sipser_into(m_seed, Graph(el), nullptr, nullptr, &untagged);
    EXPECT_GE(certificate, maximum) << "seed " << seed;
    EXPECT_LE(certificate, untagged) << "seed " << seed;

    Matching piece;
    certified_maximum_matching_into(piece, el, left);
    EXPECT_EQ(piece.size(), maximum) << "seed " << seed;
    EXPECT_TRUE(piece.valid());
    EXPECT_TRUE(piece.subset_of(el));
  }
}

TEST(KarpSipserCertificate, NonTightCoreForcesTheExactFallback) {
  // K_{2,4} has no degree-one vertex, so the whole graph is the core: one
  // even component on 6 vertices certifies 3, but the maximum is 2. The
  // piece solve must see the gap and run the exact solver, which stops at
  // the true maximum in both dispatch branches.
  const EdgeList k24 = complete_bipartite(2, 4);
  std::size_t certificate = 0;
  Matching seed;
  karp_sipser_into(seed, Graph(k24), nullptr, nullptr, &certificate);
  EXPECT_EQ(certificate, 3u);
  EXPECT_EQ(exhaustive_size(Graph(k24)), 2u);
  EXPECT_LT(seed.size(), certificate);
  for (const VertexId left_size : {VertexId{0}, VertexId{2}}) {
    MachineScratch scratch;
    Matching piece;
    certified_maximum_matching_into(piece, k24, left_size, &scratch);
    EXPECT_EQ(piece.size(), 2u) << "left_size " << left_size;
    EXPECT_TRUE(piece.valid());
    EXPECT_TRUE(piece.subset_of(k24));
  }
}

/// A hub joined to one vertex of each of three disjoint triangles: no
/// degree-one vertex, so the whole graph is the core, one even component
/// on 10 vertices that certifies 5. S = {hub} leaves three odd triangles,
/// so the maximum is 4.
EdgeList hub_with_triangles() {
  EdgeList el(10);
  for (VertexId t = 0; t < 3; ++t) {
    const VertexId o = 1 + 3 * t;
    el.add(o, o + 1);
    el.add(o + 1, o + 2);
    el.add(o + 2, o);
    el.add(0, o);
  }
  return el;
}

TEST(CertificateStop, DoesNotFireEarlyWhereTheBoundsAreNotTight) {
  // The first five cases defeat the S = {} bound on the whole graph; the
  // degree-one reductions close them, so the certificate is tight there.
  // The last three defeat the certificate too, so the certified solve must
  // run its exact fallback and stop only at the true maximum.
  struct Case {
    const char* name;
    EdgeList edges;
    VertexId left_size;
    bool certificate_tight;
  };
  const std::vector<Case> cases{
      {"claw forest", claw_forest(7), 7, true},
      {"claw forest (general)", claw_forest(7), 0, true},
      {"star forest", star_forest(6, 3), 0, true},
      {"blossom with pendant path", blossom_with_pendant_path(), 0, true},
      {"blossom with leaves", blossom_with_leaves(), 0, true},
      {"K_{2,4}", complete_bipartite(2, 4), 2, false},
      {"K_{2,4} (general)", complete_bipartite(2, 4), 0, false},
      {"hub with triangles", hub_with_triangles(), 0, false},
  };
  for (const Case& c : cases) {
    const Graph plain(c.edges);
    const std::size_t exact = exhaustive_size(plain);
    EXPECT_GT(odd_component_bound(plain), exact)
        << c.name << ": the case must defeat the S = {} bound";

    Matching seed;
    std::size_t certificate = 0;
    karp_sipser_into(seed, plain, nullptr, nullptr, &certificate);
    EXPECT_GE(certificate, exact) << c.name;
    EXPECT_EQ(certificate == exact, c.certificate_tight) << c.name;

    MachineScratch warm;
    for (MachineScratch* scratch : {static_cast<MachineScratch*>(nullptr),
                                    &warm}) {
      Matching certified;
      certified_maximum_matching_into(certified, c.edges, c.left_size,
                                      scratch);
      EXPECT_EQ(certified.size(), exact) << c.name;
      EXPECT_TRUE(certified.valid());
      EXPECT_TRUE(certified.subset_of(c.edges));
    }

    Matching kernel;
    union_maximum_matching_into(kernel, std::vector<EdgeList>{c.edges},
                                c.left_size);
    EXPECT_EQ(kernel.size(), exact) << c.name;
    EXPECT_TRUE(kernel.subset_of(c.edges));

    EXPECT_EQ(
        blossom_maximum_matching(plain, nullptr, true, &seed, certificate)
            .size(),
        exact)
        << c.name;
    if (c.left_size > 0) {
      const Graph tagged = bipartite_graph(c.edges, c.left_size);
      EXPECT_EQ(hopcroft_karp(tagged, nullptr, &seed, certificate).size(),
                exact)
          << c.name;
    }
  }
}

TEST(CertificateStop, StopsAtTheMaximumWhereTheCertificateIsTight) {
  // Odd cycles and even paths meet the certificate, so the stop fires;
  // random sparse graphs mostly do. Every result must still be maximum.
  Rng rng(21);
  const std::vector<EdgeList> tight{cycle(9), path(10)};
  std::vector<EdgeList> graphs = tight;
  for (int i = 0; i < 20; ++i) graphs.push_back(gnm(600, 900, rng));
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const EdgeList& el = graphs[i];
    const Graph g(el);
    const std::size_t exact = exhaustive_size(g);
    std::size_t certificate = 0;
    Matching seed;
    karp_sipser_into(seed, g, nullptr, nullptr, &certificate);
    EXPECT_GE(certificate, exact) << "graph " << i;
    if (i < tight.size()) {
      EXPECT_EQ(certificate, exact);
    }
    Matching kernel;
    union_maximum_matching_into(kernel, std::vector<EdgeList>{el}, 0);
    EXPECT_EQ(kernel.size(), exact) << "graph " << i;
    EXPECT_TRUE(kernel.subset_of(el));
    EXPECT_EQ(blossom_maximum_matching(g, nullptr, true, &seed, certificate)
                  .size(),
              exact);
  }
}

}  // namespace
}  // namespace rcc
