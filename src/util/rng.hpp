// Deterministic, fast pseudo-random generation for reproducible experiments.
//
// Every randomized component in the library takes an explicit Rng&; nothing
// reads global entropy. Two instances seeded identically produce identical
// experiment tables on any platform (the generator is fully specified, unlike
// std::mt19937 + distribution objects whose output is implementation-defined
// for some distributions).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace rcc {

/// SplitMix64: used to expand a single user seed into generator state.
/// Reference: Steele, Lea, Flood. "Fast splittable pseudorandom number
/// generators." OOPSLA 2014.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256++ PRNG (Blackman & Vigna). Passes BigCrush; 2^256-1 period;
/// ~1 ns per draw. Satisfies UniformRandomBitGenerator so it can be handed
/// to std::shuffle if ever needed, but the member helpers below are the
/// supported (deterministic) API.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds all 256 bits of state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return next_u64(); }

  /// Defined here, not out of line: shuffles and partition dice draw in
  /// tight loops, and an inlined draw keeps the state in registers.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). Uses Lemire's nearly-divisionless method.
  std::uint64_t next_below(std::uint64_t bound) {
    RCC_DCHECK(bound > 0);
    // Multiply-shift; the rejection loop that removes modulo bias is the
    // rare branch (lo < bound has probability bound / 2^64).
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (__builtin_expect(lo < bound, 0)) {
      const std::uint64_t threshold = (~bound + 1) % bound;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in the closed interval [lo, hi].
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Geometric skip: number of failures before the first success of a
  /// Bernoulli(p) sequence. Used by the G(n,p) generators to run in
  /// O(expected edges) instead of O(n^2).
  std::uint64_t geometric_skip(double p);

  /// Fisher-Yates shuffle of a whole vector. The swap targets are drawn
  /// 32 at a time and prefetched before the batch's swaps run: on a vector
  /// larger than the cache each swap would otherwise wait on its own miss.
  /// The draws, their order and the swaps are exactly those of the scalar
  /// loop (i = size .. 2: swap(v[i-1], v[next_below(i)])), so the
  /// permutation and the generator position are unchanged.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    constexpr std::size_t kBatch = 32;
    std::size_t targets[kBatch];
    for (std::size_t i = v.size(); i > 1;) {
      const std::size_t count = std::min(kBatch, i - 1);
      for (std::size_t b = 0; b < count; ++b) {
        targets[b] = static_cast<std::size_t>(next_below(i - b));
        __builtin_prefetch(v.data() + targets[b], 1);
      }
      using std::swap;
      for (std::size_t b = 0; b < count; ++b) {
        swap(v[i - 1 - b], v[targets[b]]);
      }
      i -= count;
    }
  }

  /// k distinct values sampled uniformly from [0, universe) in O(k) expected
  /// time (Floyd's algorithm: for j = universe-k .. universe-1, draw
  /// t = next_below(j + 1) and take t, or j when t is already taken).
  /// The taken set is a flat open-addressing table of u64 keys: a power of
  /// two >= 2k slots, multiplicative hash, linear probing, ~0 as the empty
  /// mark (no sample reaches it). That is 16-32 bytes per sample, plus the
  /// 8-byte output. The draws do not depend on the table, so they are taken
  /// 32 ahead and their slots prefetched before the inserts, as in shuffle().
  /// Draws, their order, the output order and the final generator position
  /// are exactly those of the scalar loop over a hash set. The output order
  /// is the order of the steps, not sorted.
  std::vector<std::uint64_t> sample_distinct(std::uint64_t universe, std::uint64_t k);

  /// Forks an independent stream: deterministic function of this generator's
  /// next outputs, suitable for seeding per-machine RNGs in parallel runs.
  Rng fork();

  /// The full 256-bit generator state, for transports that ship a forked
  /// stream to another process (the persistent shm workers receive their
  /// per-round machine stream this way). from_state is the exact inverse:
  /// the restored generator continues draw-for-draw where state() was taken.
  std::array<std::uint64_t, 4> state() const {
    return {s_[0], s_[1], s_[2], s_[3]};
  }
  static Rng from_state(const std::array<std::uint64_t, 4>& s) {
    Rng rng(0);
    rng.s_[0] = s[0];
    rng.s_[1] = s[1];
    rng.s_[2] = s[2];
    rng.s_[3] = s[3];
    return rng;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace rcc
