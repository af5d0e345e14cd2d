// bench_suite's grid rows: a small row measured after a big one must report
// its own peak RSS, not the big row's high-water mark, and a row's exact
// columns must not depend on how many reps time it.
#include "suite_row.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

namespace rcc::bench {
namespace {

/// A row whose run touches `bytes` of fresh heap and frees it again.
Row touching_row(const std::string& name, std::size_t bytes) {
  return measure(name, "synthetic", 1, 1, 0, 0, /*reps=*/2, /*seed=*/1,
                 [bytes](Rng&) {
                   const std::unique_ptr<char[]> block(new char[bytes]);
                   std::memset(block.get(), 1, bytes);
                   RunOutcome out;
                   out.solution = static_cast<std::size_t>(
                       static_cast<volatile char*>(block.get())[bytes - 1]);
                   return out;
                 });
}

TEST(SuiteRow, SmallRowAfterABigRowReportsItsOwnPeak) {
  if (!reset_peak_rss()) GTEST_SKIP() << "no /proc/self/clear_refs";
  // 64 MiB sits above glibc's largest mmap threshold, so freeing the block
  // returns it to the kernel before the small row starts.
  constexpr std::size_t kBig = std::size_t{64} << 20;
  constexpr std::size_t kSmall = std::size_t{1} << 20;
  const Row big = touching_row("big", kBig);
  const Row small = touching_row("small", kSmall);
  EXPECT_GE(big.peak_rss_bytes, kBig);
  EXPECT_LT(small.peak_rss_bytes + kBig / 2, big.peak_rss_bytes)
      << "the small row inherited the big row's high-water mark";
  EXPECT_EQ(small.worker_forks, 0u);
}

TEST(SuiteRow, ExactColumnsDoNotDependOnReps) {
  // Every exact column reads the rep's Rng, so a row that kept a later rep's
  // outcome would differ between 1 and 3 reps.
  const auto row_at = [](int reps) {
    return measure("seeded", "synthetic", 1, 1, 0, 0, reps, /*seed=*/7,
                   [](Rng& rng) {
                     RunOutcome out;
                     out.engine_rounds = 1 + rng.next_below(1000);
                     out.processed_edges = rng.next_below(1000000);
                     out.solution = rng.next_below(1000000);
                     out.comm_words = rng.next_below(1000000);
                     out.worker_forks = rng.next_below(1000);
                     return out;
                   });
  };
  const Row once = row_at(1);
  const Row thrice = row_at(3);
  EXPECT_EQ(once.solution, thrice.solution);
  EXPECT_EQ(once.comm_words, thrice.comm_words);
  EXPECT_EQ(once.engine_rounds, thrice.engine_rounds);
  EXPECT_EQ(once.processed_edges, thrice.processed_edges);
  EXPECT_EQ(once.worker_forks, thrice.worker_forks);
}

}  // namespace
}  // namespace rcc::bench
