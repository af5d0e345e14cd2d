#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
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
