/// adversarial_search — run PISA on one scheduler pair (Section VI) and
/// print the discovered worst-case instance, ready to save and replay.
///
/// Usage: adversarial_search [target] [baseline] [restarts] [seed]
///   target    scheduler whose worst case we hunt (default: HEFT)
///   baseline  scheduler it is compared against (default: FastestNode)
///
/// Prints the best makespan ratio found, the witness instance in the
/// saga-instance interchange format, and both schedulers' Gantt charts —
/// the same artefacts as the paper's Figs. 5-6 case study.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/gantt.hpp"
#include "core/annealer.hpp"
#include "graph/serialization.hpp"
#include "sched/registry.hpp"

int main(int argc, char** argv) {
  using namespace saga;
  const std::string target_name = argc > 1 ? argv[1] : "HEFT";
  const std::string baseline_name = argc > 2 ? argv[2] : "FastestNode";
  const std::size_t restarts = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 10;
  const std::uint64_t seed = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 42;

  const auto& registry = SchedulerRegistry::instance();
  const auto target = registry.make(target_name, kDefaultSchedulerSeed);
  const auto baseline = registry.make(baseline_name, kDefaultSchedulerSeed);

  std::printf("searching for instances where %s maximally underperforms %s\n",
              target_name.c_str(), baseline_name.c_str());
  std::printf("(%zu simulated-annealing restarts, Tmax=10, Tmin=0.1, alpha=0.99)\n\n",
              restarts);

  pisa::PisaOptions options;
  options.restarts = restarts;
  const auto result = pisa::run_pisa(*target, *baseline, options, seed);

  std::printf("best makespan ratio m(%s)/m(%s) = %.4f\n", target_name.c_str(),
              baseline_name.c_str(), result.best_ratio);
  std::printf("(initial instance scored %.4f; %zu best-updates, %zu downhill accepts)\n\n",
              result.initial_ratio, result.improved, result.accepted);

  std::printf("witness instance (save this text; load_instance replays it):\n%s\n",
              instance_to_string(result.best_instance).c_str());
  for (const auto& name : {target_name, baseline_name}) {
    const auto scheduler = registry.make(name, kDefaultSchedulerSeed);
    const auto schedule = scheduler->schedule(result.best_instance);
    std::printf("%s schedule:\n%s\n", name.c_str(),
                analysis::render_gantt(result.best_instance, schedule).c_str());
  }
  return 0;
}
