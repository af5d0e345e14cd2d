#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "mpc/coreset_mpc.hpp"

namespace rcc {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 20; ++i) pool.submit([&counter] { counter.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(counter.load(), (batch + 1) * 20);
  }
}

TEST(ThreadPool, ShardedQueuesRunEveryTaskExactlyOnceAcrossSizes) {
  // The sharded submit path round-robins tasks over per-worker deques; no
  // pool shape may lose or duplicate a task.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    ThreadPool pool(threads);
    constexpr std::size_t kTasks = 4096;
    std::vector<std::atomic<int>> slots(kTasks);
    for (std::size_t i = 0; i < kTasks; ++i) {
      pool.submit([&slots, i] { slots[i].fetch_add(1); });
    }
    pool.wait_idle();
    for (std::size_t i = 0; i < kTasks; ++i) {
      ASSERT_EQ(slots[i].load(), 1) << "threads=" << threads << " task " << i;
    }
  }
}

TEST(ThreadPool, WorkStealingDrainsUnevenLoad) {
  // One shard gets a slow task; round-robin then lands short tasks on every
  // shard including the blocked one. Idle workers must steal those instead
  // of waiting, so the whole batch drains even while one worker is stuck.
  ThreadPool pool(4);
  std::atomic<int> done{0};
  pool.submit([&done] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    done.fetch_add(1);
  });
  for (int i = 0; i < 400; ++i) {
    pool.submit([&done] { done.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 401);
}

TEST(ThreadPool, SubmissionsFromExternalThreadsAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&pool, &counter] {
      for (int i = 0; i < 500; ++i) {
        pool.submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1500);
}

TEST(ThreadPool, AffinityPinnedPoolRunsIdentically) {
  // pin_affinity is a placement hint only: best-effort, Linux-only, and
  // invisible in results. The pinned pool must pass the same exactly-once
  // contract as the default one.
  ThreadPoolOptions options;
  options.pin_affinity = true;
  ThreadPool pool(4, options);
  EXPECT_EQ(pool.size(), 4u);
  const std::size_t n = 5000;
  std::vector<std::uint64_t> values(n);
  parallel_for(pool, n, [&values](std::size_t i) { values[i] = i; });
  const auto sum = std::accumulate(values.begin(), values.end(),
                                   std::uint64_t{0});
  EXPECT_EQ(sum, static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for(pool, n, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(ParallelFor, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  parallel_for(pool, 0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, CountSmallerThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> visits(3);
  parallel_for(pool, 3, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (int i = 0; i < 3; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, ComputesParallelSum) {
  ThreadPool pool(4);
  const std::size_t n = 100000;
  std::vector<std::uint64_t> values(n);
  parallel_for(pool, n, [&](std::size_t i) { values[i] = i; });
  const auto sum = std::accumulate(values.begin(), values.end(), std::uint64_t{0});
  EXPECT_EQ(sum, static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST(ParallelFor, TransientPoolOverload) {
  std::vector<std::atomic<int>> visits(64);
  parallel_for(64, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (int i = 0; i < 64; ++i) EXPECT_EQ(visits[i].load(), 1);
}

// ---------------------------------------------------------------------------
// Determinism contract: the simulators' results are a function of (input,
// seed), never of the pool shape. Runs across thread counts, with and
// without affinity pinning, and with no pool at all must be bit-identical.

TEST(PoolShapeDifferential, MpcResultsIdenticalAcrossThreadCountsAndAffinity) {
  // The coreset fold on a general graph (blossom-backed rounds) and on a
  // bipartite one (Hopcroft-Karp-backed rounds).
  struct Case {
    const char* name;
    EdgeList edges;
    VertexId left_size;
  };
  Rng gen(42);
  std::vector<Case> cases;
  cases.push_back({"general", gnp(500, 8.0 / 500, gen), 0});
  cases.push_back({"bipartite", random_bipartite(120, 150, 0.06, gen), 120});

  MpcEngineConfig config;
  config.mpc.num_machines = 8;
  config.mpc.memory_words = std::uint64_t{1} << 40;
  config.max_rounds = 3;

  std::vector<CoresetMpcMatchingResult> bases;
  for (const Case& c : cases) {
    Rng base_rng(7);  // sequential: no pool
    bases.push_back(
        coreset_mpc_matching_rounds(c.edges, config, c.left_size, base_rng));
  }

  struct Shape {
    std::size_t threads;
    bool pin;
  };
  for (const Shape shape : {Shape{1, false}, Shape{2, false}, Shape{8, false},
                            Shape{8, true}}) {
    ThreadPoolOptions options;
    options.pin_affinity = shape.pin;
    ThreadPool pool(shape.threads, options);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      const CoresetMpcMatchingResult& base = bases[i];
      const std::string what = std::string(c.name) +
                               " threads=" + std::to_string(shape.threads) +
                               " pin=" + std::to_string(shape.pin);
      Rng rng(7);
      const CoresetMpcMatchingResult got =
          coreset_mpc_matching_rounds(c.edges, config, c.left_size, rng, &pool);
      ASSERT_EQ(got.matching.size(), base.matching.size()) << what;
      for (VertexId v = 0; v < c.edges.num_vertices(); ++v) {
        ASSERT_EQ(got.matching.mate(v), base.matching.mate(v))
            << what << " vertex " << v;
      }
      EXPECT_EQ(got.rounds, base.rounds) << what;
      EXPECT_EQ(got.stats.engine_rounds, base.stats.engine_rounds) << what;
      EXPECT_EQ(got.stats.total_comm_words, base.stats.total_comm_words)
          << what;
    }
  }
}

}  // namespace
}  // namespace rcc
