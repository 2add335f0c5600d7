#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace saga {
namespace {

TEST(ThreadPool, SpawnsRequestedThreads) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST(ThreadPool, RejectsMoreThanMaxThreadsBeforeStartingAny) {
  EXPECT_THROW(ThreadPool pool(kMaxThreads + 1), std::invalid_argument);
}

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIterations) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForWorksOnSingleThreadPool) {
  ThreadPool pool(1);
  std::atomic<int> total{0};
  pool.parallel_for(100, [&](std::size_t i) { total += static_cast<int>(i); });
  EXPECT_EQ(total.load(), 4950);
}

TEST(ThreadPool, ParallelForMoreItemsThanThreads) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(500, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, ParallelForRethrowsFirstError) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 17) throw std::logic_error("iteration failed");
                        }),
      std::logic_error);
}

TEST(ThreadPool, SequentialSubmitsRunInOrderOfCompletion) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::mutex m;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(pool.submit([&, i] {
      std::lock_guard lock(m);
      order.push_back(i);
    }));
  }
  for (auto& f : futures) f.get();
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // single worker drains FIFO
}

TEST(ThreadPool, QueueDepthTracksBacklogWhileWorkerIsBusy) {
  ThreadPool pool(1);
  std::promise<void> release;
  auto gate = release.get_future().share();
  auto blocker = pool.submit([gate] { gate.wait(); });
  // Wait until the single worker holds the blocker, so everything submitted
  // next must queue.
  while (pool.jobs_completed() < 1) std::this_thread::yield();
  EXPECT_EQ(pool.queue_depth(), 0u);

  constexpr int kJobs = 64;
  std::vector<std::future<int>> futures;
  futures.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) futures.push_back(pool.submit([i] { return i; }));
  EXPECT_EQ(pool.queue_depth(), static_cast<std::size_t>(kJobs));

  release.set_value();
  blocker.get();
  for (int i = 0; i < kJobs; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i);
  // Every job was popped before its future was satisfied, so the backlog is
  // provably empty and the pick-up counter complete.
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.jobs_completed(), static_cast<std::size_t>(kJobs) + 1);
}

TEST(ThreadPool, CountersStayConsistentUnderConcurrentSubmitters) {
  ThreadPool pool(4);
  constexpr int kSubmitters = 4;
  constexpr int kJobsEach = 200;
  std::atomic<int> ran{0};
  std::vector<std::thread> submitters;
  std::vector<std::future<void>> futures[kSubmitters];  // one lane per submitter
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int i = 0; i < kJobsEach; ++i) {
        futures[s].push_back(pool.submit([&ran] { ++ran; }));
      }
    });
  }
  for (auto& t : submitters) t.join();
  for (auto& fs : futures) {
    for (auto& f : fs) f.get();
  }
  EXPECT_EQ(ran.load(), kSubmitters * kJobsEach);
  EXPECT_EQ(pool.jobs_completed(), static_cast<std::size_t>(kSubmitters * kJobsEach));
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(GlobalPool, IsSingleton) { EXPECT_EQ(&global_pool(), &global_pool()); }

}  // namespace
}  // namespace saga
