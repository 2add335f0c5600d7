/// Figs. 5 and 6 — the HEFT-vs-CPoP case study.
///
/// The paper shows two concrete PISA-discovered instances: one where HEFT
/// is ~1.55x worse than CPoP (Fig. 5) and one where CPoP is ~2.83x worse
/// than HEFT (Fig. 6). The figures' exact weights are not fully legible
/// from the text, so this bench re-runs the discovery: PISA for each
/// direction, printing the witness instance (in the saga-instance format,
/// ready to publish/replay) and both schedulers' Gantt charts, mirroring
/// the figures' layout.
///
/// Expected shape: both directions find ratios comfortably above 1.3;
/// typically well above the paper's 1.55 / 2.83 because the search is not
/// restricted further.

#include <cstdio>

#include "analysis/gantt.hpp"
#include "bench_common.hpp"
#include "core/annealer.hpp"
#include "graph/serialization.hpp"
#include "sched/registry.hpp"

namespace {

void run_direction(const char* target_name, const char* baseline_name, double paper_ratio,
                   std::uint64_t seed) {
  using namespace saga;
  const auto& registry = SchedulerRegistry::instance();
  const auto target = registry.make(target_name, kDefaultSchedulerSeed);
  const auto baseline = registry.make(baseline_name, kDefaultSchedulerSeed);

  pisa::PisaOptions options;
  options.restarts = scaled_count(5, 5);
  const auto result = pisa::run_pisa(*target, *baseline, options, seed);

  std::printf("\n=== worst case for %s against %s ===\n", target_name, baseline_name);
  std::printf("found ratio: %.3f (paper's example: %.2f)\n", result.best_ratio, paper_ratio);
  std::printf("witness instance:\n%s", instance_to_string(result.best_instance).c_str());
  for (const auto* s : {target_name, baseline_name}) {
    const auto schedule = registry.make(s, kDefaultSchedulerSeed)->schedule(result.best_instance);
    std::printf("%s schedule:\n%s", s, analysis::render_gantt(result.best_instance, schedule).c_str());
  }
}

}  // namespace

int main() {
  saga::bench::banner("bench_fig05_06_case_study", "Figs. 5-6 (HEFT vs CPoP witnesses)");
  saga::bench::ScopedTimer timer("fig05_06 total");
  run_direction("HEFT", "CPoP", 1.55, saga::env_seed());
  run_direction("CPoP", "HEFT", 2.83, saga::env_seed() + 1);
  return 0;
}
