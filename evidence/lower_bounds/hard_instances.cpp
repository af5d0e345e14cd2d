#include "evidence/lower_bounds/hard_instances.hpp"

#include <algorithm>
#include <unordered_set>

namespace rcc {

bool DMatchingInstance::is_hidden_edge(const Edge& e) const {
  // Hidden edges join L\A to R\B; E_AB edges join A to B, so the indicator
  // test is exact (the two sides are disjoint).
  return !in_A[e.u] && !in_B[e.v];
}

DMatchingInstance make_d_matching(VertexId n, double alpha, std::size_t k,
                                  Rng& rng) {
  RCC_CHECK(alpha >= 1.0);
  DMatchingInstance inst;
  inst.n = n;
  inst.alpha = alpha;
  inst.k = k;
  const VertexId universe = 2 * n;
  const auto set_size = static_cast<VertexId>(
      std::max<double>(1.0, static_cast<double>(n) / alpha));

  inst.in_A.assign(universe, false);
  inst.in_B.assign(universe, false);
  std::vector<VertexId> a_members, b_members;
  a_members.reserve(set_size);
  b_members.reserve(set_size);
  for (auto idx : rng.sample_distinct(n, set_size)) {
    const auto v = static_cast<VertexId>(idx);
    inst.in_A[v] = true;
    a_members.push_back(v);
  }
  for (auto idx : rng.sample_distinct(n, set_size)) {
    const auto v = static_cast<VertexId>(n + idx);
    inst.in_B[v] = true;
    b_members.push_back(v);
  }

  inst.edges = EdgeList(universe);
  inst.hidden = EdgeList(universe);

  // E_AB: Bernoulli(k*alpha/n) over the |A| x |B| grid via geometric skips.
  const double p = std::min(1.0, static_cast<double>(k) * alpha /
                                     static_cast<double>(n));
  const std::uint64_t grid =
      static_cast<std::uint64_t>(set_size) * static_cast<std::uint64_t>(set_size);
  std::uint64_t pos = rng.geometric_skip(p);
  while (pos < grid) {
    const auto ai = static_cast<std::size_t>(pos / set_size);
    const auto bi = static_cast<std::size_t>(pos % set_size);
    inst.edges.add(a_members[ai], b_members[bi]);
    pos += 1 + rng.geometric_skip(p);
  }

  // E_hidden: a uniform perfect matching between L\A and R\B.
  std::vector<VertexId> l_rest, r_rest;
  l_rest.reserve(n - set_size);
  r_rest.reserve(n - set_size);
  for (VertexId v = 0; v < n; ++v) {
    if (!inst.in_A[v]) l_rest.push_back(v);
  }
  for (VertexId v = n; v < universe; ++v) {
    if (!inst.in_B[v]) r_rest.push_back(v);
  }
  rng.shuffle(r_rest);
  for (std::size_t i = 0; i < l_rest.size(); ++i) {
    inst.hidden.add(l_rest[i], r_rest[i]);
    inst.edges.add(l_rest[i], r_rest[i]);
  }
  return inst;
}

std::size_t DVcInstance::opt_upper_bound() const {
  std::size_t a_size = 0;
  for (bool b : in_A) a_size += b ? 1 : 0;
  return a_size + 1;
}

DVcInstance make_d_vc(VertexId n, double alpha, std::size_t k, Rng& rng) {
  RCC_CHECK(alpha >= 1.0);
  DVcInstance inst;
  inst.n = n;
  inst.alpha = alpha;
  inst.k = k;
  const VertexId universe = 2 * n;
  const auto set_size = static_cast<VertexId>(
      std::max<double>(1.0, static_cast<double>(n) / alpha));

  inst.in_A.assign(universe, false);
  std::vector<VertexId> a_members;
  a_members.reserve(set_size);
  for (auto idx : rng.sample_distinct(n, set_size)) {
    const auto v = static_cast<VertexId>(idx);
    inst.in_A[v] = true;
    a_members.push_back(v);
  }

  inst.edges = EdgeList(universe);
  const double p =
      std::min(1.0, static_cast<double>(k) / (2.0 * static_cast<double>(n)));
  const std::uint64_t grid =
      static_cast<std::uint64_t>(set_size) * static_cast<std::uint64_t>(n);
  std::uint64_t pos = rng.geometric_skip(p);
  while (pos < grid) {
    const auto ai = static_cast<std::size_t>(pos / n);
    const auto r = static_cast<VertexId>(n + pos % n);
    inst.edges.add(a_members[ai], r);
    pos += 1 + rng.geometric_skip(p);
  }

  // v* uniform over L \ A; e* to a uniform right vertex. Avoid duplicating
  // an existing edge is unnecessary (v* has no other edges).
  for (;;) {
    const auto cand = static_cast<VertexId>(rng.next_below(n));
    if (!inst.in_A[cand]) {
      inst.v_star = cand;
      break;
    }
  }
  const auto r_star = static_cast<VertexId>(n + rng.next_below(n));
  inst.e_star = make_edge(inst.v_star, r_star);
  inst.edges.add(inst.e_star);
  return inst;
}

}  // namespace rcc
