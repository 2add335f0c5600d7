/// Stochastic-instance robustness study (paper future work: "we plan to
/// add support for stochastic problem instances (with stochastic task
/// costs, data sizes, computation speeds, and communication costs)").
///
/// For two scientific workflows (blast, montage at CCR 1) and increasing
/// uncertainty (coefficient of variation 0.1 / 0.3 / 0.5 on every weight),
/// each scheduler plans on the mean instance; its plan is then re-executed
/// under Monte-Carlo realisations. Reported per scheduler:
///   - the planned (deterministic) makespan,
///   - the realised makespan distribution, and
///   - regret = realised / clairvoyant-replanned (1.0 = the static plan is
///     as good as re-planning with perfect information).
///
/// Expected shape: regret grows with the coefficient of variation;
/// schedulers that over-fit to exact weights (HEFT's greedy EFT choices)
/// degrade faster than coarse ones (FastestNode has regret ~1 by
/// construction — serialising is insensitive to weight noise).

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "datasets/registry.hpp"
#include "sched/registry.hpp"
#include "stochastic/robustness.hpp"

int main() {
  using namespace saga;
  bench::banner("bench_stochastic_robustness",
                "stochastic instances (future work, cf. Canon et al. robustness study)");
  bench::ScopedTimer timer("robustness total");

  const std::size_t samples = scaled_count(200, 30);
  for (const char* workflow : {"blast", "montage"}) {
    const auto base =
        datasets::DatasetRegistry::instance().make(std::string(workflow) + "?ccr=1", env_seed())
            ->generate(0);
    for (double cv : {0.1, 0.3, 0.5}) {
      stochastic::StochasticInstance stoch(base);
      stoch.apply_relative_noise(cv);
      std::printf("\n=== %s, CCR 1.0, weight noise cv=%.1f (%zu samples) ===\n", workflow,
                  cv, samples);
      std::printf("%-12s %10s  %-52s %s\n", "scheduler", "planned", "realized makespan",
                  "regret (realized/replanned)");
      for (const auto& name : SchedulerRegistry::instance().names("app-specific")) {
        const auto scheduler = SchedulerRegistry::instance().make(name, env_seed());
        const auto report =
            stochastic::evaluate_robustness(*scheduler, stoch, samples, env_seed());
        std::printf("%-12s %10.2f  %-52s mean=%.3f max=%.3f\n", name.c_str(),
                    report.planned_makespan, to_string(report.realized).c_str(),
                    report.regret.mean, report.regret.max);
      }
    }
  }
  return 0;
}
