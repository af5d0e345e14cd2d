#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace rcc {

ThreadPool::ThreadPool(std::size_t threads, ThreadPoolOptions options) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  shards_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
#if defined(__linux__)
    if (options.pin_affinity) {
      const unsigned hw =
          std::max(1u, std::thread::hardware_concurrency());
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(static_cast<int>(i % hw), &set);
      // Best-effort: a restricted cpuset just leaves the thread unpinned.
      (void)pthread_setaffinity_np(workers_.back().native_handle(),
                                   sizeof(set), &set);
    }
#else
    (void)options;
#endif
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  const std::size_t shard =
      next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(shards_[shard]->mutex);
    shards_[shard]->tasks.push_back(std::move(task));
  }
  // seq_cst on queued_/sleepers_: submit does {queued_++; read sleepers_}
  // while a parking worker does {sleepers_++; read queued_} — a Dekker
  // handshake. Sequential consistency makes at least one side see the
  // other, so either the submitter notifies or the worker's wait predicate
  // is already true; weaker orders could lose both and strand a task.
  queued_.fetch_add(1);
  if (sleepers_.load() > 0) {
    {
      std::lock_guard<std::mutex> lock(sleep_mutex_);
    }
    cv_task_.notify_one();
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(idle_mutex_);
  cv_idle_.wait(lock, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

bool ThreadPool::try_acquire(std::size_t self, std::function<void()>& out) {
  const std::size_t n = shards_.size();
  // Own queue first (front: FIFO for locally submitted order), then steal
  // from the neighbors' backs, scanning outward so two idle workers tend to
  // raid different victims.
  {
    Shard& mine = *shards_[self];
    std::lock_guard<std::mutex> lock(mine.mutex);
    if (!mine.tasks.empty()) {
      out = std::move(mine.tasks.front());
      mine.tasks.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  for (std::size_t off = 1; off < n; ++off) {
    Shard& victim = *shards_[(self + off) % n];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      out = std::move(victim.tasks.back());
      victim.tasks.pop_back();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t id) {
  std::function<void()> task;
  for (;;) {
    if (try_acquire(id, task)) {
      task();
      task = nullptr;  // release captures before signaling idle
      if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(idle_mutex_);
        cv_idle_.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    sleepers_.fetch_add(1);  // seq_cst half of the submit() handshake
    cv_task_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) || queued_.load() > 0;
    });
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    if (stop_.load(std::memory_order_acquire) &&
        queued_.load(std::memory_order_acquire) == 0) {
      return;  // drained: destructor semantics match the old pool
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const std::size_t workers = pool.size();
  if (workers == 1) {
    // One worker admits no concurrency: parking the caller while a single
    // pool thread runs the chunks buys nothing and pays a futex wake per
    // burst (which a sub-millisecond phase pays many times per round). The
    // call set fn(0..count) is identical either way.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  const std::size_t chunks = std::min(count, workers * 4);
  const std::size_t per_chunk = (count + chunks - 1) / chunks;
  std::atomic<std::size_t> next{0};
  for (std::size_t c = 0; c < chunks; ++c) {
    pool.submit([&fn, &next, count, per_chunk] {
      for (;;) {
        const std::size_t begin = next.fetch_add(per_chunk);
        if (begin >= count) return;
        const std::size_t end = std::min(begin + per_chunk, count);
        for (std::size_t i = begin; i < end; ++i) fn(i);
      }
    });
  }
  pool.wait_idle();
}

void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn) {
  ThreadPool pool;
  parallel_for(pool, count, fn);
}

}  // namespace rcc
