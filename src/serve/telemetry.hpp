#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/stats.hpp"

/// \file telemetry.hpp
/// Lock-free service counters for the `saga serve` daemon, rendered as
/// Prometheus text exposition format at GET /metrics. Everything on the
/// request path is a relaxed atomic increment (counters) or a FixedHistogram
/// record (latency) — no locks, no allocation — so instrumentation costs
/// nanoseconds against a ~microseconds schedule call. Gauges that live
/// outside the service (queue depth, in-flight requests, uptime) are
/// sampled at render time and passed in by the daemon.
///
/// Memory-ordering audit (TSan-verified): every counter is written with an
/// atomic read-modify-write (fetch_add) and read with plain loads, all
/// relaxed — the weakest correct order here, because
///   (a) each counter is individually exact: fetch_add never loses an
///       increment regardless of ordering, and
///   (b) no reader derives a cross-counter invariant that would need
///       happens-before: a /metrics render racing a handler may observe
///       saga_requests_total already bumped while the latency histogram is
///       not yet (or vice versa) — the exposition is documented as a
///       statistical snapshot, and Prometheus scrapes tolerate exactly this
///       kind of skew.
/// Upgrading these to acquire/release would not tighten any observable
/// guarantee; it would only tax the request hot path.

namespace saga::serve {

/// Request endpoints the daemon distinguishes in its counters. kOther
/// covers unknown paths and protocol-level rejections.
enum class Endpoint : std::size_t {
  kSchedule = 0,  // POST /v1/schedule
  kCompare,       // POST /v1/compare
  kMetrics,       // GET /metrics
  kHealthz,       // GET /healthz
  kOther,
};
inline constexpr std::size_t kEndpointCount = 5;

[[nodiscard]] std::string_view to_string(Endpoint endpoint);

class Telemetry {
 public:
  Telemetry() : latency_us_(FixedHistogram::latency_us()) {}

  /// Stamps one completed request: endpoint, response status, handler
  /// latency. Thread-safe, lock-free.
  void record_request(Endpoint endpoint, int status, double latency_us);

  /// Stamps one schedule/compare request's arena acquisition: `warm` when
  /// the thread-local TimelineArena already existed (no warm-up paid).
  void record_arena(bool warm);

  [[nodiscard]] std::uint64_t requests_total() const noexcept;
  /// Requests by endpoint (all statuses).
  [[nodiscard]] std::uint64_t requests(Endpoint endpoint) const noexcept;
  /// Requests by endpoint and status class (2, 4, or 5).
  [[nodiscard]] std::uint64_t requests(Endpoint endpoint, int status_class) const noexcept;
  [[nodiscard]] std::uint64_t arena_hits() const noexcept;
  [[nodiscard]] std::uint64_t arena_misses() const noexcept;
  [[nodiscard]] const FixedHistogram& latency() const noexcept { return latency_us_; }

  /// Point-in-time values sampled by the daemon at scrape time.
  struct Gauges {
    std::size_t queue_depth = 0;        // connections waiting for a worker
    std::size_t inflight = 0;           // requests currently being handled
    std::uint64_t jobs_completed = 0;   // pool jobs picked up since start
    std::uint64_t connections = 0;      // TCP connections accepted
    double uptime_seconds = 0.0;
    std::uint64_t admission_shed = 0;   // requests/connections shed with 429
  };

  /// Prometheus text exposition (version 0.0.4): HELP/TYPE headers,
  /// saga_requests_total by endpoint and status class, latency histogram
  /// buckets plus p50/p90/p99 gauges, arena reuse counters, and the sampled
  /// gauges.
  [[nodiscard]] std::string render_prometheus(const Gauges& gauges) const;

 private:
  // [endpoint][status class index: 0=2xx, 1=4xx, 2=5xx]
  std::array<std::array<std::atomic<std::uint64_t>, 3>, kEndpointCount> by_endpoint_status_{};
  std::atomic<std::uint64_t> arena_hits_{0};
  std::atomic<std::uint64_t> arena_misses_{0};
  FixedHistogram latency_us_;
};

}  // namespace saga::serve
