// Tests for the harness's own arithmetic: medians and quartiles, the rule
// that a percentile is reported only with at least ten samples beyond it,
// span self time with nested and overlapping children, and open-loop
// due-time latency, generator lateness and the gate on it.
//
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   ctest --test-dir .bench_build/perfbench

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "loadgen.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

void check_near(double got, double want, const std::string& what) {
  check(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
        what + " (got " + std::to_string(got) + ", want " + std::to_string(want) + ")");
}

using namespace perfbench;

void test_median_and_quartiles() {
  check_near(median({3, 1, 2}), 2, "median of odd count");
  check_near(median({4, 1, 3, 2}), 2.5, "median of even count");
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  check_near(q.q1, 2.75, "q1 of 1..10");
  check_near(q.q2, 5.5, "q2 of 1..10");
  check_near(q.q3, 8.25, "q3 of 1..10");
  // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
  const Quartiles small = quartiles({1, 2, 3});
  check_near(small.q1, 1.0, "q1 clamps to the minimum");
  check_near(small.q3, 3.0, "q3 clamps to the maximum");
}

void test_percentile_support() {
  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(i);
  check(samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  const auto p99 = supported_percentile(xs, 0.99);
  check(p99.has_value() && *p99 == 990.0, "p99 of 1..1000 is 990");
  xs.pop_back();
  check(!supported_percentile(xs, 0.99).has_value(), "999 samples cannot support p99");
  check(supported_percentile(xs, 0.9).has_value(), "999 samples support p90");
  check(samples_beyond(100, 0.9) == 10, "100 samples leave 10 beyond p90");
  check(!supported_percentile(std::vector<double>(99, 1.0), 0.9).has_value(),
        "99 samples cannot support p90");
  check(supported_percentile({}, 0.5) == std::nullopt, "empty sample has no percentile");
  check(samples_for_tail(0.99) == 1000, "p99 needs 1000 samples");
  check(samples_for_tail(0.9) == 100, "p90 needs 100 samples");
  check(samples_for_tail(0.5) == 20, "p50 needs 20 samples");
}

void test_self_time() {
  // Parent [0, 100) with children [10, 30) and [20, 50) overlapping (union
  // 40), a grandchild inside the first child, and a child that starts
  // before the parent and is clipped to [0, 5).
  std::vector<Span> spans = {
      {1, 0, 7, 0, 0, 100},   // parent
      {2, 1, 7, 1, 10, 30},   // child
      {3, 1, 7, 1, 20, 50},   // overlapping child
      {4, 2, 7, 2, 12, 18},   // grandchild: counts against span 2 only
      {5, 1, 7, 1, -10, 5},   // clipped child
  };
  const auto self = self_times(spans, {});
  check(self.at(1) == 100 - 40 - 5, "parent self time discounts the union of its children");
  check(self.at(2) == 20 - 6, "nested grandchild counts against its own parent");
  check(self.at(4) == 6, "a leaf's self time is its duration");
  check(covered_ns(0, 100, {{10, 30}, {20, 50}, {40, 60}}) == 50, "chained overlaps merge");
  check(covered_ns(0, 100, {{10, 20}, {10, 20}}) == 10, "duplicate children count once");
  // Aggregated per-step children are summed, not merged.
  const auto with_aggregates = self_times({{1, 0, 7, 0, 0, 100}}, {{1, 7, 3, 4, 30}});
  check(with_aggregates.at(1) == 70, "aggregates subtract their total");
}

/// What an ideal generator records for a connection whose requests take
/// `service` seconds each: every request is sent at max(due, previous done).
std::vector<OpenLoopRecord> ideal_connection(const std::vector<double>& due,
                                             const std::vector<double>& service) {
  std::vector<OpenLoopRecord> out;
  double previous_done = 0.0;
  for (std::size_t i = 0; i < due.size(); ++i) {
    const double sent = std::max(due[i], previous_done);
    previous_done = sent + service[i];
    out.push_back({due[i], sent, previous_done});
  }
  return out;
}

void test_open_loop() {
  // Requests due every 10 ms; the second stalls for 35 ms. The ideal
  // generator sends each at max(due, previous done), so the requests queued
  // behind the stall are charged the wait from their due times.
  const std::vector<double> due = {0.000, 0.010, 0.020, 0.030, 0.040, 0.050};
  const std::vector<double> service = {0.001, 0.035, 0.001, 0.001, 0.001, 0.001};
  const auto records = ideal_connection(due, service);
  const auto samples = open_loop_samples(records);
  check_near(samples[0].latency_ms, 1.0, "unqueued request latency is its service time");
  check_near(samples[1].latency_ms, 35.0, "the stalled request itself");
  check_near(samples[2].latency_ms, 26.0, "queued behind the stall: 45 - 20 + 1");
  check_near(samples[3].latency_ms, 17.0, "still queued: 46 - 30 + 1");
  check_near(samples[4].latency_ms, 8.0, "draining: 47 - 40 + 1");
  check_near(samples[5].latency_ms, 1.0, "caught up");
  for (const auto& s : samples) check_near(s.late_ms, 0.0, "an ideal generator is never late");

  // A late generator: the third request went out 4 ms after its
  // connection was free (free at max(due 20, done 45) = 45 ms).
  std::vector<OpenLoopRecord> late = records;
  late[2].sent += 0.004;
  late[2].done += 0.004;
  const auto late_samples = open_loop_samples(late);
  check_near(late_samples[2].late_ms, 4.0, "lateness counts from when the connection was free");
  check_near(late_samples[2].latency_ms, 30.0, "lateness also shows in latency from due");
  check_near(late_samples[1].late_ms, 0.0, "waiting for a busy connection is not lateness");

  // The generator gate: lateness at the median and at the p99 may be at
  // most kMaxLateShare of the latency at the same percentile.
  std::vector<OpenLoopSample> phase(1000, OpenLoopSample{1.0, 0.05});
  const GeneratorCheck on_time = check_generator(phase);
  check(on_time.kept_up, "lateness well under the share of the latency passes");
  check_near(on_time.latency_p50_ms, 1.0, "the gate's median latency");
  for (std::size_t i = 0; i < 10; ++i) phase[i].late_ms = 5.0;
  check(check_generator(phase).kept_up, "ten late requests stay beyond the p99");
  phase[10].late_ms = 5.0;
  const GeneratorCheck behind = check_generator(phase);
  check(!behind.kept_up, "eleven late requests move the p99 of lateness over the limit");
  check_near(behind.late_p99_ms, 5.0, "the p99 of lateness");
  for (std::size_t i = 0; i < 20; ++i) phase[i].latency_ms = 60.0;
  check(check_generator(phase).kept_up, "late requests in a slow tail do not distort its p99");
  std::vector<OpenLoopSample> median_late(1000, OpenLoopSample{1.0, 0.2});
  check(!check_generator(median_late).kept_up, "lateness at the median distorts the median");
  std::vector<OpenLoopSample> short_phase(50, OpenLoopSample{1.0, 0.0});
  short_phase[7].late_ms = 0.2;
  check(!check_generator(short_phase).kept_up,
        "without ten samples beyond the p99, the worst lateness counts");

  const auto a = poisson_due_times(7, 1000.0, 2.0);
  const auto b = poisson_due_times(7, 1000.0, 2.0);
  check(a == b, "Poisson schedule is a pure function of the seed");
  check(a.size() > 1800 && a.size() < 2200, "Poisson count near rate x duration");
  check(std::is_sorted(a.begin(), a.end()), "due times ascend");
}

}  // namespace

int main() {
  test_median_and_quartiles();
  test_percentile_support();
  test_self_time();
  test_open_loop();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
