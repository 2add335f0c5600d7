/// Fig. 2 — Makespan ratios of 15 algorithms evaluated on 16 datasets.
///
/// For every dataset, every scheduler runs on every instance; the reported
/// cell is the scheduler's *maximum* makespan ratio over the dataset
/// (ratio baseline: the best of the 15 schedulers on that instance). The
/// paper draws this as a heatmap with per-instance gradients; we print the
/// max-ratio matrix plus per-scheduler five-number summaries, and write
/// fig02.csv when SAGA_CSV_DIR is set.
///
/// Paper sizes: 1000 instances for random/IoT datasets, 100 for the
/// scientific workflows — scaled by SAGA_SCALE (default 0.25).
///
/// Declaratively driven: the whole scenario is an ExperimentSpec (the same
/// driver behind `saga run`; examples/specs/fig02_tiny.json is the
/// file-based equivalent).

#include <cstdio>
#include <iostream>
#include <vector>

#include "analysis/csv.hpp"
#include "bench_common.hpp"
#include "datasets/registry.hpp"
#include "exp/experiment.hpp"

int main() {
  using namespace saga;
  bench::banner("bench_fig02_benchmarking", "Fig. 2 (benchmarking grid, 15 x 16)");
  bench::ScopedTimer timer("fig02 total");

  exp::ExperimentSpec spec;
  spec.name = "Fig. 2: max makespan ratio per dataset";
  spec.mode = exp::Mode::kBenchmark;
  spec.schedulers = {"@benchmark"};
  for (const auto& name : datasets::DatasetRegistry::instance().names("table2")) {
    spec.datasets.push_back({name, 0});
  }
  spec.seed = env_seed();

  const auto result = exp::run_experiment(spec, std::cout);

  std::printf("Per-scheduler ratio distributions (all datasets pooled):\n");
  for (const auto& name : spec.resolved_schedulers()) {
    std::vector<double> pooled;
    for (const auto& b : result.benchmarks) {
      const auto& rs = b.for_scheduler(name).ratios;
      pooled.insert(pooled.end(), rs.begin(), rs.end());
    }
    std::printf("  %-12s %s\n", name.c_str(), to_string(summarize(pooled)).c_str());
  }

  const auto csv = analysis::maybe_write_csv(
      "fig02", [&](std::ostream& out) { analysis::write_benchmark_csv(out, result.benchmarks); });
  if (!csv.empty()) std::printf("wrote %s\n", csv.c_str());
  return 0;
}
