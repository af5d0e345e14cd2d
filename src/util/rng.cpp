#include "util/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

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
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(k));
  if (k == 0) return out;
  // Open-addressing set of the values chosen so far: a power-of-two table of
  // at least 2k slots (load <= 1/2), Fibonacci-hashed on the top bits,
  // linear probing. Every sample is < universe <= 2^64 - 1, so ~0 can mark an
  // empty slot.
  constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  const std::uint64_t capacity = std::bit_ceil(2 * k);
  const int shift = 64 - std::countr_zero(capacity);
  const std::uint64_t mask = capacity - 1;
  std::vector<std::uint64_t> table(static_cast<std::size_t>(capacity), kEmpty);
  const auto home = [&](std::uint64_t x) {
    return (x * 0x9e3779b97f4a7c15ULL) >> shift;
  };
  // True when x was absent (and is now present).
  const auto insert = [&](std::uint64_t x, std::uint64_t slot) {
    for (;; slot = (slot + 1) & mask) {
      if (table[slot] == x) return false;
      if (table[slot] == kEmpty) {
        table[slot] = x;
        return true;
      }
    }
  };
  // Floyd's algorithm. Its draws do not depend on the table, so they are
  // taken a batch ahead and their home slots prefetched before the inserts,
  // exactly as shuffle() does for its swap targets.
  constexpr std::uint64_t kBatch = 32;
  std::uint64_t draws[kBatch];
  std::uint64_t slots[kBatch];
  for (std::uint64_t j = universe - k; j < universe;) {
    const std::uint64_t count = std::min(kBatch, universe - j);
    for (std::uint64_t b = 0; b < count; ++b) {
      draws[b] = next_below(j + b + 1);
      slots[b] = home(draws[b]);
      __builtin_prefetch(table.data() + slots[b], 1);
    }
    for (std::uint64_t b = 0; b < count; ++b, ++j) {
      if (insert(draws[b], slots[b])) {
        out.push_back(draws[b]);
      } else {
        // j exceeds every value chosen so far, so it is always new.
        insert(j, home(j));
        out.push_back(j);
      }
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
