#include "evidence/vertex_cover/peeling.hpp"

#include <cmath>
#include <functional>

#include "vertex_cover/approx.hpp"

namespace rcc {

std::vector<VertexId> PeelingResult::all_peeled() const {
  std::vector<VertexId> out;
  for (const auto& level : levels) out.insert(out.end(), level.begin(), level.end());
  return out;
}

namespace {

/// Shared peeling loop: round j (1-based) removes alive vertices with
/// residual degree >= threshold(j); stops when stop(j) or nothing changes
/// and thresholds have bottomed out.
///
/// The degree buffer and the shrinking edge set are double-buffered across
/// peeling rounds (one warmed pair of lists instead of a fresh allocation
/// per level) — the workspace discipline of util/workspace.hpp applied to
/// this module's own loop.
PeelingResult peel(const EdgeList& edges,
                   const std::function<double(int)>& threshold, int max_rounds) {
  PeelingResult result;
  const VertexId n = edges.num_vertices();
  std::vector<bool> removed(n, false);
  std::vector<VertexId> deg;
  EdgeList current = edges;
  EdgeList next(n);
  for (int j = 1; j <= max_rounds; ++j) {
    const double thr = threshold(j);
    EdgeSpan(current).degrees_into(deg);
    std::vector<VertexId> level;
    for (VertexId v = 0; v < n; ++v) {
      if (!removed[v] && static_cast<double>(deg[v]) >= thr) level.push_back(v);
    }
    for (VertexId v : level) removed[v] = true;
    next.assign_filtered(
        current, [&](const Edge& e) { return !removed[e.u] && !removed[e.v]; });
    std::swap(current, next);
    result.levels.push_back(std::move(level));
  }
  result.residual = std::move(current);
  return result;
}

}  // namespace

PeelingResult parnas_ron_peeling(const EdgeList& edges) {
  const double n = static_cast<double>(edges.num_vertices());
  if (n < 2) {
    PeelingResult r;
    r.residual = edges;
    return r;
  }
  const double floor_threshold = std::max(4.0 * std::log2(std::max(n, 2.0)), 1.0);
  int rounds = 0;
  while (n / std::exp2(rounds + 1) > floor_threshold) ++rounds;
  return peel(
      edges, [&](int j) { return n / std::exp2(j + 1); }, rounds);
}

VertexCover parnas_ron_vertex_cover(const EdgeList& edges, Rng& rng) {
  const PeelingResult peeled = parnas_ron_peeling(edges);
  VertexCover cover =
      VertexCover::from_vertices(edges.num_vertices(), peeled.all_peeled());
  const VertexCover residual_cover = vc_two_approximation(peeled.residual, rng);
  cover.merge(residual_cover);
  return cover;
}

std::vector<VertexId> HypotheticalPeeling::all_o() const {
  std::vector<VertexId> out;
  for (const auto& level : o_levels) out.insert(out.end(), level.begin(), level.end());
  return out;
}

std::vector<VertexId> HypotheticalPeeling::all_obar() const {
  std::vector<VertexId> out;
  for (const auto& level : obar_levels) {
    out.insert(out.end(), level.begin(), level.end());
  }
  return out;
}

std::size_t HypotheticalPeeling::total_size() const {
  std::size_t total = 0;
  for (const auto& level : o_levels) total += level.size();
  for (const auto& level : obar_levels) total += level.size();
  return total;
}

HypotheticalPeeling hypothetical_peeling(const EdgeList& edges,
                                         const std::vector<bool>& optimal_cover) {
  const VertexId n = edges.num_vertices();
  RCC_CHECK(optimal_cover.size() == n);
  HypotheticalPeeling result;

  // G_1: drop edges with both endpoints inside O* (the rest is bipartite
  // between O* and its complement because O* is a cover).
  EdgeList current = edges.filter([&](const Edge& e) {
    return !(optimal_cover[e.u] && optimal_cover[e.v]);
  });
  for (const Edge& e : current) {
    RCC_CHECK(optimal_cover[e.u] || optimal_cover[e.v]);
  }

  std::vector<bool> removed(n, false);
  const int t = static_cast<int>(
      std::ceil(std::log2(std::max<double>(n, 2))));
  for (int j = 1; j <= t; ++j) {
    const auto deg = current.degrees();
    const double thr_o = static_cast<double>(n) / std::exp2(j);
    const double thr_obar = static_cast<double>(n) / std::exp2(j + 2);
    std::vector<VertexId> o_level;
    std::vector<VertexId> obar_level;
    for (VertexId v = 0; v < n; ++v) {
      if (removed[v]) continue;
      const double d = deg[v];
      if (optimal_cover[v] && d >= thr_o) {
        o_level.push_back(v);
      } else if (!optimal_cover[v] && d >= thr_obar) {
        obar_level.push_back(v);
      }
    }
    for (VertexId v : o_level) removed[v] = true;
    for (VertexId v : obar_level) removed[v] = true;
    current = current.filter(
        [&](const Edge& e) { return !removed[e.u] && !removed[e.v]; });
    result.o_levels.push_back(std::move(o_level));
    result.obar_levels.push_back(std::move(obar_level));
  }
  return result;
}

}  // namespace rcc
