/// workflow_explorer — inspect the structure of the scientific-workflow
/// and IoT task graphs (the paper's Fig. 9 shows srasearch and blast).
///
/// Usage: workflow_explorer [dataset] [seed]
///
/// Prints the generated task graph as an indented dependency listing plus
/// summary statistics (task count, edges, critical-path length, CCR on a
/// unit network), and a HEFT Gantt chart on the instance's own network.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/gantt.hpp"
#include "datasets/registry.hpp"
#include "sched/ranks.hpp"
#include "sched/registry.hpp"

int main(int argc, char** argv) {
  using namespace saga;
  const std::string dataset = argc > 1 ? argv[1] : "srasearch";
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;

  const auto inst = datasets::DatasetRegistry::instance().make(dataset, seed)->generate(0);
  const auto& g = inst.graph;

  std::printf("%s instance (seed %llu): %zu tasks, %zu dependencies, %zu-node network\n\n",
              dataset.c_str(), static_cast<unsigned long long>(seed), g.task_count(),
              g.dependency_count(), inst.network.node_count());

  std::printf("dependency listing (task <- predecessors):\n");
  for (TaskId t : g.topological_order()) {
    std::printf("  %-28s c=%8.2f  <-", g.name(t).c_str(), g.cost(t));
    for (TaskId p : g.predecessors(t)) {
      std::printf(" %s(%.1f)", g.name(p).c_str(), g.dependency_cost(p, t));
    }
    std::printf("\n");
  }

  const auto cp = critical_path(inst);
  std::printf("\ncritical path (%zu tasks):", cp.size());
  for (TaskId t : cp) std::printf(" %s", g.name(t).c_str());
  std::printf("\nCCR (this instance): %.3f\n\n", inst.ccr());

  const auto schedule =
      SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed)->schedule(inst);
  std::printf("HEFT schedule:\n%s", analysis::render_gantt(inst, schedule).c_str());
  return 0;
}
