/// Fig. 3 — Comparison of scheduling algorithms on slightly modified
/// networks.
///
/// Replays the paper's illustrative five-task fork-join instance on the
/// original homogeneous network and on the modified network with node 3's
/// links weakened to 0.5, printing each scheduler's Gantt chart. The
/// paper's drawn schedules (HEFT 16 vs CPoP 15 on the modified network)
/// hinge on tie-breaking among the three identical middle tasks; with this
/// implementation's smallest-id tie-breaks both algorithms reach 14 on both
/// networks, so we additionally sweep the link weakening further (0.5 →
/// 0.05) to expose where the schedules genuinely diverge.

#include <cstdio>

#include "analysis/gantt.hpp"
#include "bench_common.hpp"
#include "datasets/families.hpp"
#include "sched/registry.hpp"

int main() {
  using namespace saga;
  bench::banner("bench_fig03_network_sensitivity", "Fig. 3 (HEFT/CPoP network sensitivity)");
  const auto& registry = SchedulerRegistry::instance();

  for (bool weakened : {false, true}) {
    const auto inst = families::fig3_instance(weakened);
    std::printf("\n--- %s network ---\n", weakened ? "modified (s(*,3)=0.5)" : "original");
    for (const char* name : {"HEFT", "CPoP"}) {
      const auto schedule = registry.make(name, kDefaultSchedulerSeed)->schedule(inst);
      std::printf("%s:\n%s", name, analysis::render_gantt(inst, schedule).c_str());
    }
  }

  std::printf("\n--- sweep: weakening node 3's links further ---\n");
  std::printf("%-10s %10s %10s %10s\n", "s(*,3)", "HEFT", "CPoP", "HEFT/CPoP");
  for (double strength : {1.0, 0.5, 0.25, 0.1, 0.05}) {
    auto inst = families::fig3_instance(false);
    inst.network.set_strength(0, 2, strength);
    inst.network.set_strength(1, 2, strength);
    const double heft = registry.make("HEFT", kDefaultSchedulerSeed)->schedule(inst).makespan();
    const double cpop = registry.make("CPoP", kDefaultSchedulerSeed)->schedule(inst).makespan();
    std::printf("%-10.2f %10.3f %10.3f %10.3f\n", strength, heft, cpop, heft / cpop);
  }
  return 0;
}
