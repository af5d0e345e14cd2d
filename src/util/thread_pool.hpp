// Sharded work-stealing thread pool with a parallel_for helper.
//
// The simultaneous-communication and MPC simulators use one logical task per
// simulated machine; the pool multiplexes those onto hardware threads so the
// "machines compute their summaries simultaneously" semantics of the paper
// maps onto actual parallel execution.
//
// Queue discipline: one deque per worker, each behind its own mutex, instead
// of the former single mutex-guarded std::queue. submit() distributes tasks
// round-robin across the shards; a worker pops its own deque from the front
// and, when empty, steals from its neighbors' backs. Under the machine phase
// (k tasks landing at once on w workers) every worker then runs its own
// tasks off a private lock, and the old behavior — every push, pop, AND
// in-flight decrement serialized on one pool-wide mutex — disappears; the
// only global state is three atomics and a sleep/idle pair of condition
// variables touched when workers actually park. Execution semantics are
// unchanged: every submitted task runs exactly once, on some pool thread,
// and wait_idle() returns only when all of them finished. Task-to-worker
// placement is scheduling-dependent exactly as before — determinism of the
// simulators comes from tasks writing disjoint slots, never from placement.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rcc {

struct ThreadPoolOptions {
  /// Pin worker i to CPU (i mod hardware_concurrency). Linux-only (no-op
  /// elsewhere): keeps a worker's warmed MachineScratch hot in one core's
  /// private cache across rounds instead of following the scheduler around
  /// the socket. Off by default — pinning on a shared/oversubscribed host
  /// can hurt, so it is an opt-in knob (`--pool-affinity` in the benches).
  bool pin_affinity = false;
};

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0, ThreadPoolOptions options = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; tasks must not throw (the library reports errors via
  /// RCC_CHECK aborts, matching the no-exceptions-across-boundaries rule).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

 private:
  /// Cache-line-padded per-worker queue: adjacent shards never false-share
  /// their mutexes/deques.
  struct alignas(64) Shard {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  bool try_acquire(std::size_t self, std::function<void()>& out);
  void worker_loop(std::size_t id);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> next_shard_{0};  // round-robin submit cursor
  std::atomic<std::size_t> queued_{0};      // tasks sitting in some deque
  std::atomic<std::size_t> in_flight_{0};   // queued + currently running
  std::atomic<std::size_t> sleepers_{0};    // workers parked on cv_task_
  std::atomic<bool> stop_{false};
  std::mutex sleep_mutex_;
  std::condition_variable cv_task_;
  std::mutex idle_mutex_;
  std::condition_variable cv_idle_;
};

/// Runs fn(i) for i in [0, count) across the pool, blocking until done.
/// Work is chunked so tiny iterations do not drown in queue overhead; the
/// chunk count is a pure function of (count, pool size), so the set of
/// fn(i) calls — and everything the simulators derive from them — is
/// independent of scheduling.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

/// Convenience: runs fn(i) on a transient pool sized to hardware threads.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

}  // namespace rcc
