#include "common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

namespace saga {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double total = 0.0;
  for (double x : xs) total += x;
  return total / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double accum = 0.0;
  for (double x : xs) accum += (x - m) * (x - m);
  return std::sqrt(accum / static_cast<double>(xs.size() - 1));
}

namespace {

/// Linear interpolation at rank q * (n - 1) of a sorted, non-empty sample.
/// An exact rank returns its sample as is: blending it with a +inf
/// neighbour at weight 0 would compute inf * 0 = NaN.
double sorted_quantile(const std::vector<double>& xs, double q) {
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0) return xs[lo];
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

}  // namespace

double quantile(std::vector<double> xs, double q) {
  assert(!xs.empty());
  assert(q >= 0.0 && q <= 1.0);
  std::sort(xs.begin(), xs.end());
  return sorted_quantile(xs, q);
}

Summary summarize(std::vector<double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  s.mean = mean(xs);
  s.stddev = stddev(xs);
  std::sort(xs.begin(), xs.end());
  s.min = xs.front();
  s.max = xs.back();
  s.q1 = sorted_quantile(xs, 0.25);
  s.median = sorted_quantile(xs, 0.5);
  s.q3 = sorted_quantile(xs, 0.75);
  return s;
}

std::string to_string(const Summary& s) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "n=%zu min=%.2f q1=%.2f med=%.2f q3=%.2f max=%.2f mean=%.2f",
                s.count, s.min, s.q1, s.median, s.q3, s.max, s.mean);
  return buf;
}

FixedHistogram::FixedHistogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) throw std::invalid_argument("FixedHistogram needs at least one bucket");
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument("FixedHistogram bounds must be strictly increasing");
  }
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0, std::memory_order_relaxed);
}

FixedHistogram FixedHistogram::latency_us() {
  std::vector<double> bounds;
  for (double decade = 1.0; decade <= 1e6; decade *= 10.0) {
    for (double step : {1.0, 2.0, 5.0}) {
      if (decade * step > 1e7) break;
      bounds.push_back(decade * step);
    }
  }
  bounds.push_back(1e7);  // 10 s
  return FixedHistogram(std::move(bounds));
}

void FixedHistogram::record(double value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());  // == size(): overflow
  // Memory order: relaxed everywhere. Each of the three cells (bucket,
  // count_, sum_) is individually exact because every write is an atomic
  // RMW; the cells are deliberately NOT updated as one transaction — a
  // concurrent reader may see count_ ahead of the bucket counts or sum_
  // behind both. percentile()/counts() are documented snapshots and rank
  // against the bucket array alone, so no reader needs a happens-before
  // edge through any of these.
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> needs C++20 library support GCC ships only
  // for integral types on some targets; a CAS loop is portable. The CAS
  // needs no ordering either: success only has to publish the new sum
  // atomically, not any other memory.
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value, std::memory_order_relaxed)) {
  }
}

std::uint64_t FixedHistogram::count() const noexcept {
  return count_.load(std::memory_order_relaxed);
}

double FixedHistogram::sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

double FixedHistogram::percentile(double p) const noexcept {
  // Rank against a snapshot of the bucket counts (not count_, which can be
  // momentarily ahead of the bucket a concurrent writer is about to bump).
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    total += counts_[i].load(std::memory_order_relaxed);
  }
  if (total == 0) return 0.0;
  p = std::min(std::max(p, 0.0), 1.0);
  const double rank = p * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    cumulative += counts_[i].load(std::memory_order_relaxed);
    if (static_cast<double>(cumulative) >= rank) return bounds_[i];
  }
  return std::numeric_limits<double>::infinity();
}

std::vector<std::uint64_t> FixedHistogram::counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace saga
