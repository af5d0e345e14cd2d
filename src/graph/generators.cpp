#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>

namespace rcc {

EdgeList gnp(VertexId n, double p, Rng& rng) {
  EdgeList out(n);
  if (n < 2 || p <= 0.0) return out;
  if (p >= 1.0) {
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) out.add(u, v);
    }
    return out;
  }
  // Walk the strictly-upper-triangular adjacency matrix linearly with
  // geometric jumps between present edges.
  const std::uint64_t universe =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  std::uint64_t idx = rng.geometric_skip(p);
  while (idx < universe) {
    // Decode the linear index into (u, v), u < v: row u holds n-1-u cells.
    // Solve the triangular-number inversion directly.
    const double nn = static_cast<double>(n);
    double approx =
        nn - 0.5 - std::sqrt((nn - 0.5) * (nn - 0.5) - 2.0 * static_cast<double>(idx));
    auto u = static_cast<std::uint64_t>(approx);
    auto row_start = [&](std::uint64_t r) {
      return r * (2 * static_cast<std::uint64_t>(n) - r - 1) / 2;
    };
    while (u > 0 && row_start(u) > idx) --u;
    while (row_start(u + 1) <= idx) ++u;
    const std::uint64_t v = u + 1 + (idx - row_start(u));
    out.add(static_cast<VertexId>(u), static_cast<VertexId>(v));
    idx += 1 + rng.geometric_skip(p);
  }
  return out;
}

EdgeList gnm(VertexId n, std::uint64_t m, Rng& rng) {
  const std::uint64_t universe = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  RCC_CHECK(m <= universe);
  // The list's storage is allocated before the sampler runs, so the
  // sampler's scratch, freed on return, lies above it and folds back into
  // the top of the heap instead of staying resident as a hole below it.
  std::vector<Edge> edges(static_cast<std::size_t>(m));
  const std::vector<std::uint64_t> codes = rng.sample_distinct(universe, m);
  // Decode each code as in gnp, in draw order, straight into the list's
  // storage: every record is (u, v) with u < v < n by construction, so the
  // list adopts the buffer with no per-edge check.
  const auto n64 = static_cast<std::uint64_t>(n);
  const double half = static_cast<double>(n) - 0.5;
  const auto row_start = [n64](std::uint64_t r) {
    return r * (2 * n64 - r - 1) / 2;
  };
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const std::uint64_t code = codes[i];
    auto u = static_cast<std::uint64_t>(
        half - std::sqrt(half * half - 2.0 * static_cast<double>(code)));
    while (u > 0 && row_start(u) > code) --u;
    while (row_start(u + 1) <= code) ++u;
    edges[i] = Edge{static_cast<VertexId>(u),
                    static_cast<VertexId>(u + 1 + (code - row_start(u)))};
  }
  return EdgeList::adopt(n, std::move(edges));
}

EdgeList random_bipartite(VertexId nL, VertexId nR, double p, Rng& rng) {
  const VertexId n = nL + nR;
  EdgeList out(n);
  if (nL == 0 || nR == 0 || p <= 0.0) return out;
  if (p >= 1.0) return complete_bipartite(nL, nR);
  const std::uint64_t universe = static_cast<std::uint64_t>(nL) * nR;
  std::uint64_t idx = rng.geometric_skip(p);
  while (idx < universe) {
    const auto u = static_cast<VertexId>(idx / nR);
    const auto v = static_cast<VertexId>(nL + idx % nR);
    out.add(u, v);
    idx += 1 + rng.geometric_skip(p);
  }
  return out;
}

EdgeList left_regular_bipartite(VertexId nL, VertexId nR, VertexId d, Rng& rng) {
  RCC_CHECK(d <= nR);
  EdgeList out(nL + nR);
  out.reserve(static_cast<std::size_t>(nL) * d);
  for (VertexId u = 0; u < nL; ++u) {
    for (auto r : rng.sample_distinct(nR, d)) {
      out.add(u, nL + static_cast<VertexId>(r));
    }
  }
  return out;
}

EdgeList random_perfect_matching(VertexId n_per_side, Rng& rng) {
  std::vector<VertexId> perm(n_per_side);
  for (VertexId i = 0; i < n_per_side; ++i) perm[i] = i;
  rng.shuffle(perm);
  EdgeList out(2 * n_per_side);
  out.reserve(n_per_side);
  for (VertexId i = 0; i < n_per_side; ++i) out.add(i, n_per_side + perm[i]);
  return out;
}

EdgeList complete_bipartite(VertexId nL, VertexId nR) {
  EdgeList out(nL + nR);
  out.reserve(static_cast<std::size_t>(nL) * nR);
  for (VertexId u = 0; u < nL; ++u) {
    for (VertexId v = 0; v < nR; ++v) out.add(u, nL + v);
  }
  return out;
}

EdgeList crown(VertexId n_per_side) {
  RCC_CHECK(n_per_side >= 2);
  EdgeList out(2 * n_per_side);
  out.reserve(static_cast<std::size_t>(n_per_side) * (n_per_side - 1));
  for (VertexId i = 0; i < n_per_side; ++i) {
    for (VertexId j = 0; j < n_per_side; ++j) {
      if (i != j) out.add(i, n_per_side + j);
    }
  }
  return out;
}

EdgeList crown_forest(VertexId count, VertexId size) {
  RCC_CHECK(size >= 2);
  const VertexId per_crown = 2 * size;
  EdgeList out(count * per_crown);
  for (VertexId c = 0; c < count; ++c) {
    const VertexId base = c * per_crown;
    for (VertexId i = 0; i < size; ++i) {
      for (VertexId j = 0; j < size; ++j) {
        if (i != j) out.add(base + i, base + size + j);
      }
    }
  }
  return out;
}

EdgeList star(VertexId n) {
  RCC_CHECK(n >= 2);
  EdgeList out(n);
  out.reserve(n - 1);
  for (VertexId v = 1; v < n; ++v) out.add(0, v);
  return out;
}

EdgeList star_forest(VertexId count, VertexId leaves) {
  const VertexId per_star = leaves + 1;
  EdgeList out(count * per_star);
  out.reserve(static_cast<std::size_t>(count) * leaves);
  for (VertexId s = 0; s < count; ++s) {
    const VertexId center = s * per_star;
    for (VertexId l = 1; l <= leaves; ++l) out.add(center, center + l);
  }
  return out;
}

EdgeList path(VertexId n) {
  EdgeList out(n);
  for (VertexId v = 0; v + 1 < n; ++v) out.add(v, v + 1);
  return out;
}

EdgeList cycle(VertexId n) {
  RCC_CHECK(n >= 3);
  EdgeList out = path(n);
  out.add(n - 1, 0);
  return out;
}

EdgeList chung_lu_power_law(VertexId n, double beta, double avg_deg, Rng& rng) {
  RCC_CHECK(beta > 2.0);
  // Target weights w_i ~ (i+1)^(-1/(beta-1)), scaled to sum = n * avg_deg.
  std::vector<double> w(n);
  double total = 0.0;
  const double exponent = -1.0 / (beta - 1.0);
  for (VertexId i = 0; i < n; ++i) {
    w[i] = std::pow(static_cast<double>(i + 1), exponent);
    total += w[i];
  }
  const double scale = avg_deg * static_cast<double>(n) / total;
  for (auto& x : w) x *= scale;
  const double W = avg_deg * static_cast<double>(n);

  // Efficient Chung-Lu sampling (Miller & Hagberg style): walk vertex pairs
  // in weight order with geometric skips using an upper-bound probability,
  // then accept with the exact ratio.
  EdgeList out(n);
  for (VertexId u = 0; u < n; ++u) {
    VertexId v = u + 1;
    if (v >= n) break;
    double p_bound = std::min(1.0, w[u] * w[v] / W);
    while (v < n && p_bound > 0.0) {
      const std::uint64_t skip = rng.geometric_skip(p_bound);
      if (skip >= static_cast<std::uint64_t>(n - v)) break;
      v += static_cast<VertexId>(skip);
      const double p_exact = std::min(1.0, w[u] * w[v] / W);
      if (rng.bernoulli(p_exact / p_bound)) out.add(u, v);
      p_bound = p_exact;
      ++v;
    }
  }
  return out;
}

HubGadget hub_gadget(VertexId n, VertexId hubs) {
  HubGadget g;
  g.n = n;
  g.hubs = hubs;
  g.left_size = n;
  // Universe: [0,n) = a_i, [n,2n) = b_i, [2n, 2n+hubs) = c_j. The bs and cs
  // share the right side, so the graph is bipartite with left_size = n.
  EdgeList out(2 * n + hubs);
  out.reserve(static_cast<std::size_t>(n) * (1 + hubs));
  for (VertexId i = 0; i < n; ++i) out.add(i, n + i);
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = 0; j < hubs; ++j) out.add(i, 2 * n + j);
  }
  g.edges = std::move(out);
  return g;
}

Graph bipartite_graph(const EdgeList& edges, VertexId nL) {
  return Graph(edges, Bipartition{nL});
}

Graph general_graph(const EdgeList& edges) { return Graph(edges); }

}  // namespace rcc
