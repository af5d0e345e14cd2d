#include "matching/weighted.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "matching/max_matching.hpp"

namespace rcc {

double matching_weight(const Matching& m, WeightedEdgeSpan weights) {
  // Weight lookup by normalized edge; parallel weighted edges keep the max
  // (a matching would always prefer the heavier copy).
  std::unordered_map<Edge, double, EdgeHash> weight_of;
  weight_of.reserve(weights.num_edges() * 2);
  for (const WeightedEdge& we : weights) {
    auto [it, inserted] = weight_of.try_emplace(we.edge(), we.weight);
    if (!inserted) it->second = std::max(it->second, we.weight);
  }
  double total = 0.0;
  for (const Edge& e : m.to_edge_list()) {
    auto it = weight_of.find(e);
    RCC_CHECK(it != weight_of.end());
    total += it->second;
  }
  return total;
}

Matching greedy_weighted_matching(const WeightedEdgeList& wedges) {
  std::vector<std::size_t> idx(wedges.edges.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  // Plain sort with an index tie-break (the greedy.hpp idiom): same order a
  // stable_sort by weight produces, without stable_sort's temp-buffer
  // allocation.
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    const double wa = wedges.edges[a].weight;
    const double wb = wedges.edges[b].weight;
    if (wa != wb) return wa > wb;
    return a < b;
  });
  Matching m(wedges.num_vertices);
  for (std::size_t i : idx) {
    const WeightedEdge& we = wedges.edges[i];
    if (!m.is_matched(we.u) && !m.is_matched(we.v)) m.match(we.u, we.v);
  }
  return m;
}

WeightClasses split_weight_classes(WeightedEdgeSpan wedges, double base) {
  RCC_CHECK(base > 1.0);
  WeightClasses out;
  double wmin = 0.0;
  for (const auto& we : wedges) {
    if (we.weight > 0.0 && (wmin == 0.0 || we.weight < wmin)) wmin = we.weight;
  }
  if (wmin == 0.0) {
    // All weights zero: one empty class.
    out.classes.emplace_back(wedges.num_vertices());
    out.class_floor.push_back(0.0);
    return out;
  }
  int max_class = 0;
  auto class_of = [&](double w) {
    RCC_CHECK(std::isfinite(w));
    // w / wmin overflows when the weights span more than the double range
    // (a subnormal wmin beside a huge w); the difference of the logs stays
    // finite for any two positive finite weights.
    const double ratio = w / wmin;
    const double c =
        std::floor((std::isfinite(ratio) ? std::log(ratio)
                                         : std::log(w) - std::log(wmin)) /
                   std::log(base));
    RCC_CHECK(c < std::numeric_limits<int>::max());
    return static_cast<int>(c);
  };
  for (const auto& we : wedges) {
    if (we.weight > 0.0) max_class = std::max(max_class, class_of(we.weight));
  }
  const int num_classes = max_class + 1;
  out.classes.assign(num_classes, EdgeList(wedges.num_vertices()));
  out.class_floor.assign(num_classes, 0.0);
  for (int j = 0; j < num_classes; ++j) {
    // Heaviest class first: slot 0 holds class max_class. Where the power
    // alone overflows (a subnormal wmin), the floor is taken in logs.
    const int e = max_class - j;
    const double scaled = wmin * std::pow(base, e);
    out.class_floor[j] = std::isfinite(scaled)
                             ? scaled
                             : std::exp(std::log(wmin) + e * std::log(base));
  }
  for (const auto& we : wedges) {
    if (we.weight <= 0.0) continue;
    const int j = class_of(we.weight);
    out.classes[max_class - j].add(we.u, we.v);
  }
  return out;
}

Matching crouch_stubbs_matching(const WeightedEdgeList& wedges,
                                VertexId left_size, double base) {
  const WeightClasses wc = split_weight_classes(wedges, base);
  Matching merged(wedges.num_vertices);
  for (const EdgeList& cls : wc.classes) {
    if (cls.empty()) continue;
    EdgeList dedup_cls = cls;
    dedup_cls.dedup();
    const Matching class_matching = maximum_matching(dedup_cls, left_size);
    // Greedy merge: keep any class edge whose endpoints are still free.
    for (const Edge& e : class_matching.to_edge_list()) {
      if (!merged.is_matched(e.u) && !merged.is_matched(e.v)) {
        merged.match(e.u, e.v);
      }
    }
  }
  return merged;
}

namespace {
double exact_rec(const WeightedEdgeList& wedges, std::size_t i,
                 std::vector<bool>& used) {
  if (i == wedges.edges.size()) return 0.0;
  // Skip edge i.
  double best = exact_rec(wedges, i + 1, used);
  const WeightedEdge& we = wedges.edges[i];
  if (!used[we.u] && !used[we.v]) {
    used[we.u] = used[we.v] = true;
    best = std::max(best, we.weight + exact_rec(wedges, i + 1, used));
    used[we.u] = used[we.v] = false;
  }
  return best;
}
}  // namespace

double exact_max_weight_matching(const WeightedEdgeList& wedges) {
  RCC_CHECK(wedges.edges.size() <= 26);  // 2^m search; tests stay tiny
  std::vector<bool> used(wedges.num_vertices, false);
  return exact_rec(wedges, 0, used);
}

}  // namespace rcc
