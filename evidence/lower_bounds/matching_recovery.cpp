#include "evidence/lower_bounds/matching_recovery.hpp"

namespace rcc {

MatchingRecoveryInstance make_matching_recovery(VertexId t, VertexId p,
                                                Rng& rng) {
  RCC_CHECK(p >= 1 && t >= p);
  MatchingRecoveryInstance inst;
  inst.t = t;
  inst.p = p;
  inst.c = t / p;
  inst.alice_mate.resize(t);
  // A uniform bijection inside every block; the leftover tail [c*p, t) is
  // matched among itself (footnote 7 of the paper).
  auto fill_range = [&](VertexId begin, VertexId end) {
    std::vector<VertexId> rights;
    rights.reserve(end - begin);
    for (VertexId v = begin; v < end; ++v) rights.push_back(v);
    rng.shuffle(rights);
    for (VertexId v = begin; v < end; ++v) {
      inst.alice_mate[v] = rights[v - begin];
    }
  };
  for (std::size_t b = 0; b < inst.c; ++b) {
    fill_range(static_cast<VertexId>(b * p), static_cast<VertexId>((b + 1) * p));
  }
  if (inst.c * p < t) {
    fill_range(static_cast<VertexId>(inst.c * p), t);
  }
  inst.bob_block = static_cast<std::size_t>(rng.next_below(inst.c));
  return inst;
}

MatchingRecoveryOutcome run_budgeted_matching_recovery(
    const MatchingRecoveryInstance& inst, std::size_t budget_edges, Rng& rng) {
  MatchingRecoveryOutcome outcome;
  const std::size_t sent = std::min<std::size_t>(budget_edges, inst.t);
  outcome.message_words = 2 * sent;
  for (auto idx : rng.sample_distinct(inst.t, sent)) {
    const auto left = static_cast<VertexId>(idx);
    if (inst.block_of_left(left) == inst.bob_block &&
        left < inst.c * inst.p) {
      ++outcome.recovered_edges;
    }
  }
  return outcome;
}

}  // namespace rcc
