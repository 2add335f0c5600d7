#pragma once

#include <cstddef>
#include <optional>
#include <vector>

/// \file stats.hpp
/// The harness's own sample arithmetic. Every reported timing is a median
/// or a percentile of a sample, and a percentile is reported only when at
/// least `kMinBeyond` samples lie beyond it (so a p99 needs >= 1000
/// samples); otherwise the caller falls back to a lower percentile or
/// reports nothing.

namespace perfbench {

/// Samples that must lie strictly beyond a percentile before it is reported.
inline constexpr std::size_t kMinBeyond = 10;

/// Median (mean of the two middle values for an even count). `xs` must be
/// non-empty.
[[nodiscard]] double median(std::vector<double> xs);

/// First, second and third quartile with the "exclusive" method of
/// Python's `statistics.quantiles(xs, n=4)`: the cut points of position
/// p * (n + 1), linearly interpolated and clamped to the sample range.
/// Needs at least two samples.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> xs);

/// Nearest-rank percentile, p in (0, 1): the smallest sample with at least
/// p * n samples at or below it. Returns nothing unless at least
/// kMinBeyond samples lie strictly above that rank.
[[nodiscard]] std::optional<double> supported_percentile(std::vector<double> xs, double p);

/// Samples lying beyond the nearest-rank p-percentile of `count` samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t count, double p);

/// The fewest samples for which the p-percentile is reported.
[[nodiscard]] std::size_t samples_for_tail(double p);

}  // namespace perfbench
