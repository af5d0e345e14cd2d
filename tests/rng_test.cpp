#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>
#include <vector>

#include "graph/edge.hpp"

namespace rcc {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, NextBelowInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowOneIsZero) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto x = rng.uniform_int(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GeometricSkipMeanMatchesTheory) {
  // E[failures before success] = (1-p)/p.
  Rng rng(23);
  const double p = 0.2;
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.geometric_skip(p));
  EXPECT_NEAR(sum / n, (1.0 - p) / p, 0.1);
}

TEST(Rng, GeometricSkipWithProbabilityOneIsZero) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric_skip(1.0), 0u);
}

TEST(Rng, SampleDistinctProducesDistinctValuesInUniverse) {
  Rng rng(31);
  const auto sample = rng.sample_distinct(1000, 200);
  EXPECT_EQ(sample.size(), 200u);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 200u);
  for (auto v : sample) EXPECT_LT(v, 1000u);
}

TEST(Rng, SampleDistinctWholeUniverse) {
  Rng rng(37);
  auto sample = rng.sample_distinct(50, 50);
  std::sort(sample.begin(), sample.end());
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(sample[i], i);
}

TEST(Rng, SampleDistinctUniformity) {
  // Each element of [10] should appear in a size-5 sample w.p. 1/2.
  Rng rng(41);
  std::vector<int> counts(10, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (auto v : rng.sample_distinct(10, 5)) ++counts[v];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.5, 0.02);
  }
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(43);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Rng, ShuffleUniformFirstElement) {
  Rng rng(47);
  std::vector<int> counts(5, 0);
  const int trials = 50000;
  for (int t = 0; t < trials; ++t) {
    std::vector<int> v{0, 1, 2, 3, 4};
    rng.shuffle(v);
    ++counts[v[0]];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.2, 0.01);
  }
}

/// Frozen scalar Fisher-Yates: the loop the batched, prefetching shuffle
/// replaced. The batched one must take the same draws in the same order.
template <typename T>
void reference_scalar_shuffle(Rng& rng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.next_below(i));
    using std::swap;
    swap(v[i - 1], v[j]);
  }
}

template <typename T>
void expect_shuffle_matches_scalar(T (*make)(std::size_t)) {
  for (const std::size_t size :
       {0u, 1u, 2u, 31u, 32u, 33u, 64u, 65u, 100000u}) {
    for (const std::uint64_t seed : {3u, 77u}) {
      std::vector<T> batched(size);
      for (std::size_t i = 0; i < size; ++i) batched[i] = make(i);
      std::vector<T> scalar = batched;
      Rng a(seed);
      Rng b(seed);
      a.shuffle(batched);
      reference_scalar_shuffle(b, scalar);
      EXPECT_TRUE(batched == scalar) << "size " << size << " seed " << seed;
      EXPECT_EQ(a.next_u64(), b.next_u64())
          << "size " << size << " seed " << seed;
    }
  }
}

TEST(Rng, BatchedShuffleEqualsScalarFisherYates) {
  expect_shuffle_matches_scalar<Edge>([](std::size_t i) {
    return Edge{static_cast<VertexId>(i), static_cast<VertexId>(3 * i + 1)};
  });
  expect_shuffle_matches_scalar<std::size_t>(
      [](std::size_t i) { return i * 7 + 2; });
  expect_shuffle_matches_scalar<VertexId>(
      [](std::size_t i) { return static_cast<VertexId>(i); });
}

// Golden draws recorded before next_u64 / next_below moved inline into the
// header: the move must not change a single value or the generator
// position (the bound 2^63 + 1 rejects about half its draws).
TEST(Rng, GoldenNextU64Sequences) {
  constexpr std::uint64_t kSeed1[64] = {
      0xcfc5d07f6f03c29bULL, 0xbf424132963fe08dULL, 0x19a37d5757aaf520ULL,
      0xbf08119f05cd56d6ULL, 0x2f47184b86186fa4ULL, 0x97299fcae7202345ULL,
      0xfca3c79508f41507ULL, 0x85fea5c90363f221ULL, 0x18bae5b30d334bd0ULL,
      0x226113c9f026ec16ULL, 0xeb9e0ef9dccfe649ULL, 0x57efaedd9f6cffb3ULL,
      0x128ae2d5697640d6ULL, 0x65033a4eee505049ULL, 0x16e9453ed54a88baULL,
      0x28065aa8f428a8bbULL, 0x8ea047165f041da2ULL, 0x791032d9a4f72ef3ULL,
      0xf53882542839ed9eULL, 0xa46adeb140800f4aULL, 0x439401c53ed0d70bULL,
      0xcb3fb2f0cfd1060aULL, 0x28a2232958e06eebULL, 0x69d8ec3a36a7ffa4ULL,
      0x3cd9741a15d0a26bULL, 0x9a4ebf2d376dba70ULL, 0x2f27c4c8cc76f56aULL,
      0xfb68dacb355a2892ULL, 0x9c77729184aa08f8ULL, 0xbae7a269e5248e36ULL,
      0x97f3078dc02e78afULL, 0xa646c7e95f6ed1dfULL, 0x81df0abdf578c676ULL,
      0x9ecd7c9da746b5fdULL, 0xf44a5948aaf0b536ULL, 0x52b44e313e400271ULL,
      0x1bb5f30cc31948fdULL, 0xbbf833184be068eaULL, 0xe70e2ead13b404f4ULL,
      0xb115c91c2095ae67ULL, 0x78672edc8b5acaccULL, 0x7fbb09eab8d1b4d7ULL,
      0x631f1cdf5e4e66edULL, 0xceb9764e32a5c00eULL, 0x91e7fea40602fe82ULL,
      0x986364e157c36241ULL, 0xa03a545afe1dcc87ULL, 0x3316b8517edb39ecULL,
      0x1588ceb81a667937ULL, 0x0f1fd6f5d7e6580cULL, 0xbebadfa444a52451ULL,
      0x91a83dd36f6f1f3dULL, 0x4faf0f08137610feULL, 0x27be839411909013ULL,
      0x6f4de38408d73bc7ULL, 0x7d5227eccb8e066aULL, 0x3859a14d6b884869ULL,
      0x42cb0b2b0c27cb53ULL, 0x65278361202136dfULL, 0x1524403382bbb7c2ULL,
      0x2cab33c6c2ce2ee9ULL, 0x763a9a9b5976a28fULL, 0xd811a286f4041273ULL,
      0x5ca3764bbdf7fb18ULL,
  };
  constexpr std::uint64_t kDefaultSeed[64] = {
      0x4045deb82e7b587bULL, 0x3accf928c48d641eULL, 0xd35d0e6ebd47b807ULL,
      0x6f39e5822134ff3fULL, 0xbe4d2994a59740e1ULL, 0xb26a2492460ab9bbULL,
      0x7d06b3f4dd1cc745ULL, 0xaab765f91b68a10fULL, 0x436afe2a6a2a581fULL,
      0x804b2b946b6c2d63ULL, 0xd03214190595e1c1ULL, 0x9320e8003305b089ULL,
      0x102ad9f1b4b300c2ULL, 0x1fe99bccaa1229efULL, 0x382392ff7e0a1e4bULL,
      0x8662fd14fb5a3985ULL, 0x80fc10748596cd1aULL, 0x75243039f48f8b8aULL,
      0xd01c4bd2a7fecfebULL, 0x960ff78423afb561ULL, 0xb80a2a04519d6eeeULL,
      0x59ec00d3bea38a4eULL, 0xf85b0297a588e4bbULL, 0xfd49e410baeb6f8fULL,
      0x821eefd5f39e40ccULL, 0x79308f4b5102f466ULL, 0xb86bcdbbab76f6c0ULL,
      0x8e6da08218d9fb7fULL, 0x72e4bda1bec6d13eULL, 0xad4a48fcedff79daULL,
      0x6cffcb074d87a9aaULL, 0xb9307bee00c4e242ULL, 0x5e31ccc85393e01bULL,
      0x947b85ad23919e04ULL, 0x6f681a525d067b9eULL, 0x31b7c1da18471f3bULL,
      0xd3aa8c7dd2f8feb5ULL, 0x3f0ff98a3084a21aULL, 0x6029d29215ed5275ULL,
      0x3b6b894448a7bfaaULL, 0xfde8b514fe2caed7ULL, 0x003f1dd1f3f6534dULL,
      0xb8fd1d5343ab4bb6ULL, 0x42c77051efd2d3b1ULL, 0xd12c0b5a4f5e5754ULL,
      0x3231454387bed6a0ULL, 0x2f7bad924b24a224ULL, 0x2af6cb212ddee44eULL,
      0x3fefdd14d2ae1c0fULL, 0xd8c88154c4334e03ULL, 0x55ac10764fe5984fULL,
      0x8a11d13d2b9f55baULL, 0x6a45d630a5a03073ULL, 0x13a345585002cfeaULL,
      0x7d5e6f03cc54033bULL, 0xd422cfe6d1960e78ULL, 0x7638155f26921454ULL,
      0xb216abcdcdb15f33ULL, 0x6e24fb05028ca8b5ULL, 0x6944ba0b374a59e0ULL,
      0x5fdc505cc3880249ULL, 0x57d19de8b9371eedULL, 0xbca2b32501c4dab0ULL,
      0xce2761d5d89de338ULL,
  };
  Rng seeded(1);
  Rng defaulted;
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(seeded.next_u64(), kSeed1[i]) << "seed 1, draw " << i;
    EXPECT_EQ(defaulted.next_u64(), kDefaultSeed[i]) << "default, draw " << i;
  }
}

TEST(Rng, GoldenNextBelowIncludingRejections) {
  constexpr std::uint64_t kBounds[6] = {1, 2, 3, 8, (1ULL << 32) + 1,
                                        (1ULL << 63) + 1};
  constexpr std::uint64_t kDraws[6][8] = {
      {0, 0, 0, 0, 0, 0, 0, 0},
      {1, 0, 0, 0, 1, 0, 0, 0},
      {0, 0, 0, 2, 2, 1, 2, 1},
      {6, 0, 0, 0, 3, 2, 6, 0},
      {2180059934ULL, 3577903835ULL, 1464841181, 2651832034ULL, 1086603155,
       2521735787ULL, 3596879973ULL, 3179255770ULL},
      {5695607453362702755ULL, 558091034644329695ULL, 1318140484212516668ULL,
       2846755697657630029ULL, 2743866517926616324ULL, 4903793163507827649ULL,
       7536555368583644146ULL, 2665038096986436132ULL},
  };
  Rng rng(7);
  for (int b = 0; b < 6; ++b) {
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(rng.next_below(kBounds[b]), kDraws[b][i])
          << "bound " << kBounds[b] << ", draw " << i;
    }
  }
  // 48 accepted draws plus 10 rejected ones.
  EXPECT_EQ(rng.next_u64(), 0xf6d804ef2b57a3efULL);
}

/// Order-sensitive FNV-1a over the little-endian bytes of each value.
std::uint64_t fnv1a(const std::vector<std::uint64_t>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t x : values) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// Golden samples recorded with the hash-set sampler the flat table replaced:
// the output order and the generator position after it are pinned.
TEST(Rng, GoldenSampleDistinct) {
  struct Case {
    std::uint64_t seed, universe, k, hash, next;
  };
  constexpr Case kCases[] = {
      {1, 80000ULL * 79999 / 2, 20000, 0x2b56034cfd186c80ULL,
       0xef269dc160a43576ULL},
      {2, 10000, 5000, 0x81f215d7aafefde4ULL, 0xa11c7c360b159e2eULL},
      {3, 1000, 1000, 0x3a840aab2742da95ULL, 0xb16e8af093d10c9fULL},
      {4, ~0ULL, 1000, 0xea0b7ba7bac1634dULL, 0x21bd43aafd864893ULL},
      {5, 12345, 0, 0xcbf29ce484222325ULL, 0x4ac202caf347fc1eULL},
  };
  for (const Case& c : kCases) {
    Rng rng(c.seed);
    const auto sample = rng.sample_distinct(c.universe, c.k);
    EXPECT_EQ(sample.size(), c.k);
    EXPECT_EQ(fnv1a(sample), c.hash) << "universe " << c.universe << " k " << c.k;
    EXPECT_EQ(rng.next_u64(), c.next) << "universe " << c.universe << " k " << c.k;
  }
}

/// Frozen hash-set Floyd sampler: the loop the flat, prefetching table
/// replaced. The table must take the same draws and emit the same order.
std::vector<std::uint64_t> reference_sample_distinct(Rng& rng,
                                                     std::uint64_t universe,
                                                     std::uint64_t k) {
  std::unordered_set<std::uint64_t> chosen;
  std::vector<std::uint64_t> out;
  for (std::uint64_t j = universe - k; j < universe; ++j) {
    const std::uint64_t t = rng.next_below(j + 1);
    if (chosen.insert(t).second) {
      out.push_back(t);
    } else {
      chosen.insert(j);
      out.push_back(j);
    }
  }
  return out;
}

TEST(Rng, FlatSampleDistinctEqualsHashSetFloyd) {
  constexpr std::uint64_t kBig = ~0ULL;
  const std::pair<std::uint64_t, std::uint64_t> cases[] = {
      {1, 0},      {1, 1},        {2, 2},       {31, 31},     {32, 32},
      {33, 33},    {64, 64},      {65, 65},     {100, 1},     {100, 50},
      {4096, 4095}, {1 << 20, 33}, {kBig, 1},    {kBig, 65},   {kBig - 5, 6},
  };
  for (const auto& [universe, k] : cases) {
    for (const std::uint64_t seed : {3u, 77u}) {
      Rng a(seed);
      Rng b(seed);
      const auto flat = a.sample_distinct(universe, k);
      const auto reference = reference_sample_distinct(b, universe, k);
      EXPECT_EQ(flat, reference) << "universe " << universe << " k " << k;
      EXPECT_EQ(a.next_u64(), b.next_u64())
          << "universe " << universe << " k " << k;
    }
  }
}

TEST(Rng, ForkedStreamsAreIndependentAndDeterministic) {
  Rng parent1(99);
  Rng parent2(99);
  Rng child1 = parent1.fork();
  Rng child2 = parent2.fork();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child1.next_u64(), child2.next_u64());
  // Parent stream continues deterministically after the fork.
  for (int i = 0; i < 100; ++i) EXPECT_EQ(parent1.next_u64(), parent2.next_u64());
}

TEST(Rng, ForkDiffersFromParent) {
  Rng parent(101);
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

class RngChiSquared : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngChiSquared, NextBelowIsUniform) {
  const std::uint64_t buckets = GetParam();
  Rng rng(buckets * 7919 + 1);
  std::vector<std::uint64_t> counts(buckets, 0);
  const std::uint64_t draws = 20000 * buckets;
  for (std::uint64_t i = 0; i < draws; ++i) ++counts[rng.next_below(buckets)];
  const double expected = static_cast<double>(draws) / buckets;
  double chi2 = 0.0;
  for (auto c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  // 99.9th percentile of chi^2 with (buckets-1) dof is well below 3*buckets
  // for these sizes; generous bound to avoid flakiness.
  EXPECT_LT(chi2, 3.0 * static_cast<double>(buckets) + 30.0);
}

INSTANTIATE_TEST_SUITE_P(Buckets, RngChiSquared,
                         ::testing::Values(2, 3, 7, 10, 16, 101));

}  // namespace
}  // namespace rcc
