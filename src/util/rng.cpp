#include "util/rng.hpp"

#include <cmath>
#include <unordered_set>

#include "util/types.hpp"

namespace rcc {

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  RCC_DCHECK(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::uniform01() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform_real(double lo, double hi) {
  return lo + (hi - lo) * uniform01();
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

std::uint64_t Rng::geometric_skip(double p) {
  RCC_DCHECK(p > 0.0 && p <= 1.0);
  if (p >= 1.0) return 0;
  const double u = uniform01();
  // floor(log(1-u)/log(1-p)) failures before first success.
  return static_cast<std::uint64_t>(std::floor(std::log1p(-u) / std::log1p(-p)));
}

std::vector<std::uint64_t> Rng::sample_distinct(std::uint64_t universe, std::uint64_t k) {
  RCC_CHECK(k <= universe);
  // Floyd's algorithm: O(k) expected inserts.
  std::unordered_set<std::uint64_t> chosen;
  chosen.reserve(static_cast<std::size_t>(k) * 2);
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(k));
  for (std::uint64_t j = universe - k; j < universe; ++j) {
    const std::uint64_t t = next_below(j + 1);
    if (chosen.insert(t).second) {
      out.push_back(t);
    } else {
      chosen.insert(j);
      out.push_back(j);
    }
  }
  return out;
}

Rng Rng::fork() {
  // Mix two draws into a fresh seed; streams of parent and child do not
  // overlap in practice for experiment-scale draw counts.
  const std::uint64_t a = next_u64();
  const std::uint64_t b = next_u64();
  return Rng(a ^ rotl(b, 32) ^ 0x9e3779b97f4a7c15ULL);
}

}  // namespace rcc
