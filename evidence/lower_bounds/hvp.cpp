#include "evidence/lower_bounds/hvp.hpp"

#include <unordered_set>

namespace rcc {

HvpInstance make_hvp(std::uint64_t universe, std::size_t m, Rng& rng) {
  RCC_CHECK(m >= 1);
  RCC_CHECK(universe > m);
  HvpInstance inst;
  inst.universe = universe;

  inst.t.reserve(m);
  for (auto x : rng.sample_distinct(universe, m)) {
    inst.t.push_back(static_cast<std::uint32_t>(x));
  }
  std::unordered_set<std::uint32_t> in_t(inst.t.begin(), inst.t.end());

  // S: m-1 uniform elements of T plus one hidden element outside T.
  std::vector<std::uint32_t> shuffled_t = inst.t;
  rng.shuffle(shuffled_t);
  inst.s.assign(shuffled_t.begin(), shuffled_t.begin() + (m - 1));
  for (;;) {
    const auto cand = static_cast<std::uint32_t>(rng.next_below(universe));
    if (!in_t.count(cand)) {
      inst.hidden = cand;
      break;
    }
  }
  inst.s.push_back(inst.hidden);
  rng.shuffle(inst.s);  // Alice cannot tell which element is hidden
  return inst;
}

HvpOutcome run_budgeted_hvp(const HvpInstance& inst, std::size_t budget,
                            std::size_t fallback, Rng& rng) {
  HvpOutcome outcome;
  const std::size_t m = inst.s.size();
  const std::size_t sent_count = std::min(budget, m);
  outcome.message_words = sent_count;

  // Alice: uniform subset of S (she has no way to prioritize the hidden
  // element — that is the whole point of the distribution).
  std::vector<std::uint32_t> sent;
  sent.reserve(sent_count);
  for (auto idx : rng.sample_distinct(m, sent_count)) {
    sent.push_back(inst.s[idx]);
  }

  // Bob: anything he received that is outside T must be the hidden element.
  std::unordered_set<std::uint32_t> in_t(inst.t.begin(), inst.t.end());
  std::vector<std::uint32_t> c;
  for (auto x : sent) {
    if (!in_t.count(x)) c.push_back(x);
  }
  if (c.empty() && fallback > 0) {
    // Fallback guess: `fallback` *distinct* uniform elements of U \ T.
    std::unordered_set<std::uint32_t> chosen;
    while (chosen.size() < fallback) {
      const auto cand = static_cast<std::uint32_t>(rng.next_below(inst.universe));
      if (!in_t.count(cand) && chosen.insert(cand).second) {
        c.push_back(cand);
      }
    }
  }
  outcome.output_size = c.size();
  for (auto x : c) {
    if (x == inst.hidden) {
      outcome.success = true;
      break;
    }
  }
  return outcome;
}

}  // namespace rcc
