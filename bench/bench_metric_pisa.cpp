/// Generalised-objective PISA (paper future work: "other performance
/// metrics (e.g., throughput, energy consumption, cost, etc.)").
///
/// Runs the Section VI adversarial search with the objective switched from
/// makespan ratio to energy, inverse-throughput, and rental-cost ratios
/// (metrics/metrics.hpp), for three scheduler pairs. Each cell reports the
/// worst ratio found; the makespan column reproduces the paper's objective
/// as a reference point.
///
/// Expected shape: adversarial gaps exist under every metric, and the
/// worst-case *energy* ratio of parallelising schedulers against
/// FastestNode exceeds their makespan ratio floor (parallel schedules pay
/// idle power and transfer energy on top of any makespan loss).

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "core/annealer.hpp"
#include "core/constraints.hpp"
#include "metrics/metrics.hpp"
#include "sched/registry.hpp"

namespace {

using namespace saga;

double metric_pisa(const std::string& target_name, const std::string& baseline_name,
                   metrics::Metric metric, std::size_t restarts, std::uint64_t seed) {
  const auto& registry = SchedulerRegistry::instance();
  const auto target = registry.make(target_name, derive_seed(seed, {1}));
  const auto baseline = registry.make(baseline_name, derive_seed(seed, {2}));
  const auto reqs = pisa::combine(target->requirements(), baseline->requirements());
  pisa::PerturbationConfig config;
  pisa::apply_requirements(config, reqs);
  const auto objective = [&](const ProblemInstance& inst) {
    return metrics::metric_ratio(metric, *target, *baseline, inst);
  };

  double best = 0.0;
  for (std::size_t run = 0; run < restarts; ++run) {
    auto initial = pisa::random_chain_instance(derive_seed(seed, {3, run}));
    pisa::normalize_instance(initial, reqs);
    const auto result = pisa::anneal_objective(objective, initial, config,
                                               pisa::AnnealingParams{},
                                               derive_seed(seed, {4, run}));
    best = std::max(best, result.best_ratio);
  }
  return best;
}

}  // namespace

int main() {
  bench::banner("bench_metric_pisa", "PISA with energy/throughput/cost objectives (future work)");
  bench::ScopedTimer timer("metric pisa total");
  const std::size_t restarts = saga::scaled_count(5, 5);

  const std::vector<std::pair<const char*, const char*>> pairs = {
      {"HEFT", "FastestNode"}, {"HEFT", "CPoP"}, {"MinMin", "MaxMin"}};
  const std::vector<metrics::Metric> metric_list = {
      metrics::Metric::kMakespan, metrics::Metric::kEnergy,
      metrics::Metric::kInverseThroughput, metrics::Metric::kCost};

  std::printf("\nworst-case ratio found per (pair, objective):\n");
  std::printf("%-22s", "target vs baseline");
  for (const auto metric : metric_list) {
    std::printf(" %14s", metrics::to_string(metric).c_str());
  }
  std::printf("\n");
  for (const auto& [target, baseline] : pairs) {
    std::printf("%-22s", (std::string(target) + " vs " + baseline).c_str());
    for (const auto metric : metric_list) {
      const double ratio =
          metric_pisa(target, baseline, metric, restarts, saga::env_seed());
      std::printf(" %14.3f", ratio);
    }
    std::printf("\n");
  }
  return 0;
}
