#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

/// \file thread_pool.hpp
/// Fixed-size thread pool for the embarrassingly parallel experiment drivers
/// (pairwise PISA grids, dataset benchmarking sweeps). Determinism is
/// preserved by giving every work item its own derived RNG stream and an
/// output slot indexed by work-item id, so results are independent of
/// scheduling order.

namespace saga {

/// Upper bound on an explicit worker count. Thread counts read from outside
/// the program (`saga serve --threads`, SAGA_THREADS, a spec's "threads")
/// are checked against it, so a typo cannot ask for billions of threads.
inline constexpr std::size_t kMaxThreads = 1024;

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, at least 1).
  /// Throws std::invalid_argument, before starting any worker, when
  /// `threads` exceeds kMaxThreads.
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding work and joins all workers.
  ~ThreadPool();

  /// Drains the queue and joins all workers without destroying the pool
  /// object: after shutdown() returns, no worker thread exists, but
  /// accessors (thread_count, jobs_completed, queue_depth) remain valid.
  /// This lets an owner that hands out references to the pool (HttpServer)
  /// quiesce it *before* overwriting its owning pointer — the pointer write
  /// would otherwise race with in-flight workers reading it. Idempotent;
  /// not safe to call concurrently with itself, and must not be called
  /// from a worker (a thread cannot join itself).
  void shutdown();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Number of queued jobs the workers have picked up for execution (lane
  /// jobs spawned by parallel_for count as one each; the caller's own lane
  /// does not). Monotonic; lets tests and drivers observe that work
  /// actually reached the pool.
  ///
  /// Memory order: relaxed. An observer that synchronized with a job's
  /// completion (future.get(), parallel_for return, pool join) already has a
  /// happens-before edge to the worker's increment through that mechanism,
  /// so it reads an up-to-date count; an observer that did not synchronize
  /// is only entitled to a monotonic lower bound, which relaxed provides.
  [[nodiscard]] std::size_t jobs_completed() const noexcept {
    return jobs_completed_.load(std::memory_order_relaxed);
  }

  /// Jobs submitted but not yet picked up by a worker — the instantaneous
  /// backlog. Together with jobs_completed this is the service telemetry's
  /// queue-depth gauge; it is a momentary snapshot, not a synchronization
  /// point.
  ///
  /// Memory order: relaxed is sufficient (and the weakest correct order)
  /// because every write happens under mutex_ — the mutex serializes
  /// writers, and readers only ever treat the value as a statistical gauge,
  /// never as a proof that a particular job is or is not queued. No reader
  /// establishes happens-before through this atomic.
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return queue_depth_.load(std::memory_order_relaxed);
  }

  /// Enqueues a callable; returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    auto fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
      queue_depth_.store(queue_.size(), std::memory_order_relaxed);
    }
    cv_.notify_one();
    return fut;
  }

  /// Bounded-submit seam for backpressure (the `saga serve` daemon's
  /// accept loop): enqueues the callable only while fewer than `max_queue`
  /// jobs are waiting, so a producer that outruns the workers fails fast
  /// instead of growing the queue without bound. Returns the job's future
  /// on success, std::nullopt when the queue is full. The check and the
  /// enqueue happen under one lock, so concurrent try_submit calls never
  /// overshoot the bound (workers may drain the queue concurrently, which
  /// only ever makes room). `max_queue` must be > 0.
  template <typename F>
  auto try_submit(F&& fn, std::size_t max_queue)
      -> std::optional<std::future<std::invoke_result_t<F>>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    auto fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      if (queue_.size() >= max_queue) return std::nullopt;
      queue_.emplace_back([task] { (*task)(); });
      queue_depth_.store(queue_.size(), std::memory_order_relaxed);
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs fn(i) for i in [0, n), distributing work across the pool and
  /// blocking until all iterations complete. Exceptions from iterations are
  /// rethrown (the first one encountered).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::atomic<std::size_t> jobs_completed_{0};
  std::atomic<std::size_t> queue_depth_{0};  // == queue_.size(), maintained under mutex_
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Returns the globally shared pool, sized from the SAGA_THREADS environment
/// variable if set (see env.hpp), otherwise hardware concurrency.
[[nodiscard]] ThreadPool& global_pool();

}  // namespace saga
