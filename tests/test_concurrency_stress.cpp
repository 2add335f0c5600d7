#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "common/version.hpp"
#include "graph/network.hpp"
#include "common/thread_pool.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"
#include "serve/telemetry.hpp"

/// \file test_concurrency_stress.cpp
/// TSan-targeted stress battery (label: concurrency). These tests create
/// deliberate contention on the shared machinery — pool submit vs. teardown
/// vs. gauge readers, telemetry increments vs. /metrics renders, keep-alive
/// clients vs. HttpServer::stop() — so a race detector sees every pairing
/// the production daemon can produce. They also pin the memory-order audit:
/// each assertion holds only if the relaxed counters are individually exact
/// and the drain paths synchronize through joins, which is exactly what the
/// audit comments in thread_pool.hpp / telemetry.hpp / http.hpp claim.

namespace saga {
namespace {

using namespace std::chrono_literals;

TEST(ConcurrencyStress, PoolSubmittersVersusGaugeReaders) {
  ThreadPool pool(4);
  constexpr int kSubmitters = 4;
  constexpr int kJobsEach = 300;
  std::atomic<bool> done{false};
  std::atomic<int> ran{0};

  // Gauge readers poll the relaxed counters the whole time the submitters
  // hammer the queue; TSan verifies the loads race with nothing.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::size_t last_completed = 0;
      while (!done.load(std::memory_order_relaxed)) {
        const std::size_t completed = pool.jobs_completed();
        EXPECT_GE(completed, last_completed);  // monotone even mid-race
        last_completed = completed;
        (void)pool.queue_depth();
        std::this_thread::yield();
      }
    });
  }

  std::vector<std::thread> submitters;
  std::vector<std::future<void>> futures[kSubmitters];
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int i = 0; i < kJobsEach; ++i) {
        futures[s].push_back(pool.submit([&ran] { ran.fetch_add(1); }));
      }
    });
  }
  for (auto& t : submitters) t.join();
  for (auto& fs : futures) {
    for (auto& f : fs) f.get();
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_EQ(ran.load(), kSubmitters * kJobsEach);
  EXPECT_EQ(pool.jobs_completed(), static_cast<std::size_t>(kSubmitters * kJobsEach));
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ConcurrencyStress, PoolDestructionDrainsQueuedJobs) {
  // Destroy the pool while jobs are still queued behind a gate: the
  // destructor's documented contract is to drain outstanding work, so every
  // future must be satisfied — the stop_/cv_/join handshake races against
  // the workers' queue pops under TSan.
  std::vector<std::future<int>> futures;
  std::promise<void> release;
  auto gate = release.get_future().share();
  {
    ThreadPool pool(2);
    futures.push_back(pool.submit([gate] {
      gate.wait();
      return -1;
    }));
    for (int i = 0; i < 128; ++i) {
      futures.push_back(pool.submit([i] { return i; }));
    }
    release.set_value();
    // ~ThreadPool runs here, concurrently with workers still popping.
  }
  EXPECT_EQ(futures.front().get(), -1);
  for (int i = 0; i < 128; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i) + 1].get(), i);
  }
}

TEST(ConcurrencyStress, ParallelForUnderConcurrentGaugeReads) {
  ThreadPool pool(4);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      (void)pool.queue_depth();
      (void)pool.jobs_completed();
    }
  });
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> total{0};
    pool.parallel_for(256, [&](std::size_t i) { total.fetch_add(static_cast<int>(i)); });
    EXPECT_EQ(total.load(), 255 * 256 / 2);
  }
  done.store(true, std::memory_order_relaxed);
  reader.join();
}

TEST(ConcurrencyStress, VersionStampsStayUniqueAcrossThreads) {
  // Each thread takes stamps from its own reserved block; blocks must never
  // overlap, and no stamp may be 0 (a fresh InstanceView's "never synced").
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kStampsEach = 100000;
  std::vector<std::vector<VersionStamp>> stamps(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&stamps, i] {
      Network network(2);
      auto& mine = stamps[i];
      mine.reserve(kStampsEach);
      for (std::size_t k = 0; k < kStampsEach; ++k) {
        network.set_speed(0, 1.0 + static_cast<double>(k % 7));
        mine.push_back(network.weights_stamp());
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::vector<VersionStamp> all;
  for (const auto& mine : stamps) {
    ASSERT_EQ(mine.size(), kStampsEach);
    // Within one thread, stamps increase.
    EXPECT_TRUE(std::is_sorted(mine.begin(), mine.end()));
    all.insert(all.end(), mine.begin(), mine.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_NE(all.front(), 0u);
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end()) << "a stamp was handed out twice";
}

TEST(ConcurrencyStress, TelemetryCountersVersusMetricsRender) {
  // The ISSUE's expected race candidate: counter read-modify-write during a
  // /metrics render. Writers hammer record_request/record_arena while a
  // reader renders the full Prometheus exposition; afterwards the counters
  // must be exact (no lost increments) — the relaxed fetch_adds guarantee
  // this, and TSan guarantees the render's loads were race-free.
  serve::Telemetry telemetry;
  constexpr int kWriters = 4;
  constexpr int kEach = 500;
  std::atomic<bool> done{false};
  std::thread renderer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const std::string page = telemetry.render_prometheus({});
      EXPECT_NE(page.find("saga_requests_total"), std::string::npos);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kEach; ++i) {
        telemetry.record_request(serve::Endpoint::kSchedule, 200, 12.5);
        telemetry.record_request(serve::Endpoint::kCompare, 400, 3.0);
        telemetry.record_arena((i + w) % 2 == 0);
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  renderer.join();

  EXPECT_EQ(telemetry.requests_total(), static_cast<std::uint64_t>(2 * kWriters * kEach));
  EXPECT_EQ(telemetry.requests(serve::Endpoint::kSchedule, 2),
            static_cast<std::uint64_t>(kWriters * kEach));
  EXPECT_EQ(telemetry.requests(serve::Endpoint::kCompare, 4),
            static_cast<std::uint64_t>(kWriters * kEach));
  EXPECT_EQ(telemetry.arena_hits() + telemetry.arena_misses(),
            static_cast<std::uint64_t>(kWriters * kEach));
  EXPECT_EQ(telemetry.latency().count(), static_cast<std::uint64_t>(2 * kWriters * kEach));
}

TEST(ConcurrencyStress, HistogramRecordVersusPercentileSnapshots) {
  FixedHistogram histogram = FixedHistogram::latency_us();
  constexpr int kWriters = 4;
  constexpr int kEach = 2000;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    double last_p50 = 0.0;
    while (!done.load(std::memory_order_relaxed)) {
      const double p50 = histogram.percentile(0.5);
      EXPECT_GE(p50, 0.0);
      // Same value recorded throughout, so once the snapshot is non-empty
      // the percentile is pinned; it must never wobble downward.
      EXPECT_GE(p50, last_p50);
      last_p50 = p50;
      (void)histogram.counts();
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < kEach; ++i) histogram.record(42.0);
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(histogram.count(), static_cast<std::uint64_t>(kWriters * kEach));
  EXPECT_DOUBLE_EQ(histogram.sum(), 42.0 * kWriters * kEach);
  EXPECT_DOUBLE_EQ(histogram.percentile(0.5), 50.0);  // 42 µs -> 50 µs bucket
}

TEST(ConcurrencyStress, ServerStopDrainsUnderConcurrentKeepAliveClients) {
  // The ISSUE's second race candidate: HttpServer::stop() vs. in-flight
  // worker writes. Keep-alive clients loop requests while the main thread
  // stops the server mid-traffic; every response a client *does* receive
  // must be complete and well-formed (the drain writes in-flight responses
  // before joining), and the post-stop counters must be quiescent.
  serve::HttpServer::Options options;
  options.port = 0;
  options.threads = 3;
  std::atomic<std::uint64_t> handled{0};
  auto server = std::make_unique<serve::HttpServer>(options, [&](const serve::HttpRequest&) {
    handled.fetch_add(1, std::memory_order_relaxed);
    serve::HttpResponse resp;
    resp.body = "{\"pong\": true}\n";
    return resp;
  });
  const std::uint16_t port = server->port();

  constexpr int kClients = 3;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> halt{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      try {
        serve::HttpClient client(port);
        while (!halt.load(std::memory_order_relaxed)) {
          const serve::HttpResponse resp = client.request("GET", "/ping");
          ASSERT_EQ(resp.status, 200);
          ASSERT_EQ(resp.body, "{\"pong\": true}\n");
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const std::runtime_error&) {
        // Expected once the server stops: connection refused / closed.
      }
    });
  }

  // Let traffic build, then stop mid-flight.
  while (completed.load(std::memory_order_relaxed) < 20) std::this_thread::yield();
  server->stop();
  const std::uint64_t served_at_stop = server->requests_served();
  halt.store(true, std::memory_order_relaxed);
  for (auto& t : clients) t.join();

  // stop() returned with no request in flight: the served counter is final.
  EXPECT_EQ(server->requests_served(), served_at_stop);
  EXPECT_EQ(server->inflight(), 0u);
  // Every response a client completed was written by the server first.
  EXPECT_LE(completed.load(), server->requests_served());
  EXPECT_LE(server->requests_served(), handled.load());
  server.reset();  // double-stop via destructor must be idempotent
}

TEST(ConcurrencyStress, GaugeSamplerReadsPoolDuringStopDrain) {
  // Regression pin for a real race TSan caught: the CLI wires the service's
  // gauge sampler to read server.pool() (queue depth, jobs completed), so an
  // in-flight /metrics handler reads the pool_ pointer right up to its last
  // instruction — while stop() used to overwrite that pointer with
  // pool_.reset() *before* the workers were joined. stop() now quiesces the
  // pool via ThreadPool::shutdown() first and only then resets the pointer.
  // This test recreates the CLI wiring and stops mid-scrape; under TSan the
  // old ordering reports a data race on the unique_ptr.
  serve::ScheduleService service;
  auto server_slot = std::make_shared<std::atomic<serve::HttpServer*>>(nullptr);
  service.set_gauge_sampler([server_slot] {
    serve::Telemetry::Gauges gauges;
    if (const serve::HttpServer* server = server_slot->load(std::memory_order_acquire)) {
      gauges.queue_depth = server->pool().queue_depth();
      gauges.inflight = server->inflight();
      gauges.jobs_completed = server->pool().jobs_completed();
      gauges.connections = server->connections_accepted();
    }
    return gauges;
  });

  serve::HttpServer::Options options;
  options.port = 0;
  options.threads = 3;
  serve::HttpServer server(
      options, [&](const serve::HttpRequest& req) { return service.handle(req); });
  server_slot->store(&server, std::memory_order_release);

  constexpr int kClients = 3;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> halt{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      try {
        serve::HttpClient client(server.port());
        while (!halt.load(std::memory_order_relaxed)) {
          const serve::HttpResponse resp = client.request("GET", "/metrics");
          ASSERT_EQ(resp.status, 200);
          ASSERT_NE(resp.body.find("saga_queue_depth"), std::string::npos);
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const std::runtime_error&) {
        // Expected once the server stops.
      }
    });
  }

  // Stop while scrapes are in flight: workers are inside the gauge sampler,
  // reading server.pool(), as stop() tears the pool down.
  while (completed.load(std::memory_order_relaxed) < 20) std::this_thread::yield();
  server.stop();
  halt.store(true, std::memory_order_relaxed);
  for (auto& t : clients) t.join();
  EXPECT_EQ(server.inflight(), 0u);
}

TEST(ConcurrencyStress, ServiceHandlersVersusMetricsScrapes) {
  // Full-stack pairing: worker threads run real /v1/schedule handlers
  // (thread-local arena cache + telemetry) while another thread scrapes
  // /metrics through the same service, in-process.
  serve::ScheduleService service;
  ThreadPool pool(3);
  serve::HttpRequest schedule;
  schedule.method = "POST";
  schedule.target = "/v1/schedule";
  schedule.body = "{\"scheduler\": \"heft\", \"dataset\": \"chains?chains=2&length=3\"}";

  std::atomic<bool> done{false};
  std::thread scraper([&] {
    serve::HttpRequest metrics;
    metrics.method = "GET";
    metrics.target = "/metrics";
    while (!done.load(std::memory_order_relaxed)) {
      const serve::HttpResponse resp = service.handle(metrics);
      EXPECT_EQ(resp.status, 200);
    }
  });

  std::optional<std::string> first_body;
  std::mutex first_mutex;
  pool.parallel_for(64, [&](std::size_t) {
    const serve::HttpResponse resp = service.handle(schedule);
    ASSERT_EQ(resp.status, 200) << resp.body;
    std::lock_guard lock(first_mutex);
    if (!first_body) {
      first_body = resp.body;
    } else {
      // Byte-determinism pin: identical requests, any worker, same body.
      EXPECT_EQ(resp.body, *first_body);
    }
  });
  done.store(true, std::memory_order_relaxed);
  scraper.join();

  EXPECT_EQ(service.telemetry().requests(serve::Endpoint::kSchedule, 2), 64u);
}

}  // namespace
}  // namespace saga
