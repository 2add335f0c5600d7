#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> xs) {
  if (xs.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

Quartiles quartiles(std::vector<double> xs) {
  if (xs.size() < 2) throw std::invalid_argument("quartiles need at least two samples");
  std::sort(xs.begin(), xs.end());
  const auto n = static_cast<double>(xs.size());
  // statistics.quantiles(method="exclusive"): m = n + 1, cut i at i*m/4.
  const auto cut = [&](int i) {
    const double pos = i * (n + 1.0) / 4.0;  // 1-based position
    const double j = std::floor(pos);
    const double delta = pos - j;
    if (j < 1.0) return xs.front();
    if (j >= n) return xs.back();
    const auto k = static_cast<std::size_t>(j);
    return xs[k - 1] + (xs[k] - xs[k - 1]) * delta;
  };
  return {cut(1), cut(2), cut(3)};
}

std::size_t samples_beyond(std::size_t count, double p) {
  if (count == 0) return 0;
  // Nearest rank: the ceil(p * n)-th smallest sample (1-based).
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(count) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, count);
  return count - rank;
}

std::size_t samples_for_tail(double p) {
  std::size_t n = kMinBeyond;
  while (samples_beyond(n, p) < kMinBeyond) ++n;
  return n;
}

std::optional<double> supported_percentile(std::vector<double> xs, double p) {
  if (xs.empty() || samples_beyond(xs.size(), p) < kMinBeyond) return std::nullopt;
  const std::size_t rank = xs.size() - samples_beyond(xs.size(), p);
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(rank - 1), xs.end());
  return xs[rank - 1];
}

}  // namespace perfbench
