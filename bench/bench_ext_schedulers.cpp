/// Extension-scheduler study (paper future work: "we plan to extend SAGA
/// to include more algorithms").
///
/// Evaluates the seven extension schedulers — ERT, MH, LMT, LC (cluster
/// scheduling), GA and SimAnneal (meta-heuristics), and Ensemble — against
/// the Table I roster in two ways:
///   1. a Fig. 2-style benchmarking grid on four structurally distinct
///      datasets (ratios are against the best of the *combined* roster);
///   2. a PISA mini-grid of each extension against HEFT, CPoP, and
///      FastestNode (both directions), showing the adversarial story also
///      extends to the new algorithms.
///
/// Expected shape: Ensemble dominates its members by construction (ratio
/// 1.00 columns in benchmarking); GA/SimAnneal sit at or below HEFT; the
/// cheap heuristics (ERT/MH/LMT/LC) show the same both-directions
/// vulnerability as the paper's roster.

#include <cstdio>
#include <vector>

#include "analysis/benchmarking.hpp"
#include "analysis/ratio_matrix.hpp"
#include "bench_common.hpp"
#include "core/pairwise.hpp"
#include "datasets/registry.hpp"
#include "sched/registry.hpp"

int main() {
  using namespace saga;
  bench::banner("bench_ext_schedulers", "extension schedulers (future-work Table I additions)");
  bench::ScopedTimer timer("ext total");

  // Combined roster: the 15 benchmark schedulers plus all extensions.
  const auto& registry = SchedulerRegistry::instance();
  std::vector<std::string> roster = registry.names("benchmark", NameOrder::kLexicographic);
  const auto extensions = registry.names("extension");
  roster.insert(roster.end(), extensions.begin(), extensions.end());

  std::vector<analysis::DatasetBenchmark> benchmarks;
  for (const char* ds : {"chains", "blast", "montage", "epigenomics"}) {
    const std::size_t count = scaled_count(100, 8);
    bench::ScopedTimer dataset_timer{std::string(ds)};
    const auto source = datasets::DatasetRegistry::instance().make(ds, env_seed());
    benchmarks.push_back(analysis::benchmark_source(*source, ds, count, roster, env_seed()));
  }
  const auto table = analysis::benchmarking_table(
      benchmarks, roster, "benchmarking: max makespan ratio (combined roster baseline)");
  std::printf("\n%s\n", table.render().c_str());

  // PISA mini-grid: extensions (minus the slow meta-heuristics) against
  // three reference schedulers.
  std::vector<std::string> grid_roster = {"HEFT", "CPoP", "FastestNode", "PEFT",
                                          "ERT",  "MH",   "LMT", "LC", "Ensemble"};
  pisa::PairwiseOptions options;
  options.pisa.restarts = scaled_count(5, 5);
  const auto grid = pisa::pairwise_compare(grid_roster, options, env_seed());
  std::printf("\n%s\n",
              analysis::pairwise_table(grid, "PISA grid including extensions").render().c_str());
  return 0;
}
