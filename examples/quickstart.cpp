/// quickstart — the paper's Fig. 1 worked example, end to end.
///
/// Builds the 4-task diamond task graph and 3-node network from Fig. 1,
/// runs a handful of schedulers on it, validates every schedule, and prints
/// ASCII Gantt charts. This is the smallest complete tour of the public
/// API: TaskGraph/Network construction, the SchedulerRegistry, Schedule
/// validation, and the Gantt renderer.

#include <cstdlib>
#include <iostream>

#include "analysis/gantt.hpp"
#include "graph/problem_instance.hpp"
#include "graph/serialization.hpp"
#include "sched/registry.hpp"

int main() {
  const saga::ProblemInstance inst = saga::fig1_instance();

  std::cout << "Problem instance (paper Fig. 1):\n"
            << saga::instance_to_string(inst) << "\n";

  for (const char* name : {"HEFT", "CPoP", "MinMin", "FastestNode", "BruteForce"}) {
    const auto scheduler =
        saga::SchedulerRegistry::instance().make(name, saga::kDefaultSchedulerSeed);
    const saga::Schedule schedule = scheduler->schedule(inst);
    const auto validation = schedule.validate(inst);
    if (!validation.ok) {
      std::cerr << name << " produced an invalid schedule: " << validation.message << "\n";
      return EXIT_FAILURE;
    }
    std::cout << "--- " << name << " ---\n"
              << saga::analysis::render_gantt(inst, schedule) << "\n";
  }
  return EXIT_SUCCESS;
}
