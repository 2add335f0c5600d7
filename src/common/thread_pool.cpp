#include "common/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>

#include "common/env.hpp"

namespace saga {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads > kMaxThreads) {
    throw std::invalid_argument("thread count " + std::to_string(threads) +
                                " exceeds the limit of " + std::to_string(kMaxThreads));
  }
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_.store(queue_.size(), std::memory_order_relaxed);
    }
    // Counted before running: a future obtained from this job is only
    // satisfied inside job(), so observers that waited on it are guaranteed
    // to see the incremented count.
    jobs_completed_.fetch_add(1, std::memory_order_relaxed);
    job();
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Dynamic scheduling via a shared counter: work items are heterogeneous
  // (different schedulers / instance sizes), so static chunking would leave
  // threads idle.
  //
  // Memory order: both atomics are relaxed. `next` only needs the
  // atomicity of fetch_add — each index is claimed exactly once, and the
  // results a lane produces are published to the caller through its
  // future's release/acquire pair, not through `next`. `failed` is a
  // best-effort early-exit hint; the exception itself travels under
  // error_mutex and is rethrown only after every future has been joined.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const std::size_t lanes = std::min(n, thread_count());
  std::vector<std::future<void>> futures;
  futures.reserve(lanes);
  auto lane = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || failed.load(std::memory_order_relaxed)) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  for (std::size_t t = 0; t + 1 < lanes; ++t) futures.push_back(submit(lane));
  lane();  // caller participates, so parallel_for works on a 1-thread pool
  for (auto& f : futures) f.get();
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& global_pool() {
  static ThreadPool pool(env_threads());
  return pool;
}

}  // namespace saga
