#include "loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats.hpp"

namespace perfbench {

std::vector<OpenLoopSample> open_loop_samples(const std::vector<OpenLoopRecord>& connection) {
  std::vector<OpenLoopSample> out;
  out.reserve(connection.size());
  double previous_done = 0.0;
  for (const OpenLoopRecord& r : connection) {
    const double free_at = std::max(r.due, previous_done);
    out.push_back({(r.done - r.due) * 1e3, std::max(0.0, r.sent - free_at) * 1e3});
    previous_done = r.done;
  }
  return out;
}

GeneratorCheck check_generator(const std::vector<OpenLoopSample>& samples) {
  std::vector<double> late;
  std::vector<double> latency;
  for (const OpenLoopSample& s : samples) {
    late.push_back(s.late_ms);
    latency.push_back(s.latency_ms);
  }
  const auto p99 = [](const std::vector<double>& xs) {
    return supported_percentile(xs, 0.99).value_or(*std::max_element(xs.begin(), xs.end()));
  };
  GeneratorCheck out;
  out.late_p50_ms = median(late);
  out.late_p99_ms = p99(late);
  out.latency_p50_ms = median(latency);
  out.latency_p99_ms = p99(latency);
  out.kept_up = out.late_p50_ms <= kMaxLateShare * out.latency_p50_ms &&
                out.late_p99_ms <= kMaxLateShare * out.latency_p99_ms;
  return out;
}

std::vector<double> poisson_due_times(std::uint64_t seed, double rate, double duration) {
  if (!(rate > 0.0)) throw std::invalid_argument("poisson_due_times: rate must be positive");
  std::uint64_t state = seed;
  const auto next_unit = [&state] {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;  // [0, 1)
  };
  std::vector<double> due;
  double t = 0.0;
  while (true) {
    t += -std::log1p(-next_unit()) / rate;
    if (t >= duration) break;
    due.push_back(t);
  }
  return due;
}

}  // namespace perfbench
