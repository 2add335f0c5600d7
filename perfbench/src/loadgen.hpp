#pragma once

#include <cstdint>
#include <vector>

/// \file loadgen.hpp
/// Open-loop arithmetic. Requests are due on a seeded Poisson schedule;
/// each keep-alive connection sends its requests in due order, one at a
/// time. A request is timed from the moment it was *due*, so a stalled
/// response also counts against every request queued behind it on that
/// connection. Generator lateness is the part of the wait that is the
/// generator's own fault: how long after max(due, previous response) the
/// request actually went out.

namespace perfbench {

/// One request's timestamps, in seconds from the start of the phase.
struct OpenLoopRecord {
  double due = 0.0;   // when the schedule said to send it
  double sent = 0.0;  // when it was written
  double done = 0.0;  // when its response was fully read
};

struct OpenLoopSample {
  double latency_ms = 0.0;  // done - due
  double late_ms = 0.0;     // sent - max(due, previous done)
};

/// Latency and generator lateness of one connection's requests, given in
/// send order.
[[nodiscard]] std::vector<OpenLoopSample> open_loop_samples(
    const std::vector<OpenLoopRecord>& connection);

/// A request sent late by L has its latency inflated by L, so lateness
/// distorts a latency percentile once the same percentile of lateness is a
/// noticeable share of it. The generator kept up when its lateness at the
/// median and at the p99 is at most this share of the latency at the same
/// percentile. Otherwise the open-loop latencies measure the generator
/// rather than the daemon, and the phase counts as failed.
inline constexpr double kMaxLateShare = 0.1;

struct GeneratorCheck {
  double late_p50_ms = 0.0;
  double late_p99_ms = 0.0;  // p99s are maxima when fewer than 10 samples lie beyond
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  bool kept_up = false;
};

/// Checks an open-loop phase's samples against kMaxLateShare. `samples`
/// must be non-empty.
[[nodiscard]] GeneratorCheck check_generator(const std::vector<OpenLoopSample>& samples);

/// Poisson arrival times at `rate` per second over [0, duration), from a
/// seeded splitmix64 stream (bit-reproducible on every platform).
[[nodiscard]] std::vector<double> poisson_due_times(std::uint64_t seed, double rate,
                                                    double duration);

}  // namespace perfbench
