#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/benchmarking.hpp"
#include "analysis/csv.hpp"
#include "analysis/ratio_matrix.hpp"
#include "bench_common.hpp"
#include "core/app_specific.hpp"
#include "core/pairwise.hpp"
#include "datasets/registry.hpp"
#include "sched/registry.hpp"

/// \file app_specific_common.hpp
/// Shared driver for the application-specific experiments (paper Section
/// VII, Figs. 10-19): for one scientific workflow and one CCR, produce the
/// combined table whose top row is traditional benchmarking (max makespan
/// ratio over an in-family dataset) and whose remaining rows are the PISA
/// grid over the six schedulers, with structure-preserving perturbations.

namespace saga::bench {

/// Runs one (workflow, CCR) cell and prints its table. Returns the grid
/// for callers that aggregate.
inline pisa::PairwiseResult run_app_specific_cell(const std::string& workflow, double ccr,
                                                  std::uint64_t seed) {
  const auto roster = SchedulerRegistry::instance().names("app-specific");

  // Benchmarking row: an in-family dataset re-pinned to the CCR.
  const std::size_t count = scaled_count(100, 8);
  char spec[128];
  std::snprintf(spec, sizeof(spec), "%s?ccr=%.17g", workflow.c_str(), ccr);
  const auto source = datasets::DatasetRegistry::instance().make(spec, seed);
  const auto benchmark = analysis::benchmark_source(*source, workflow, count, roster, seed);

  // PISA grid with the workflow's restricted PERTURB implementation.
  pisa::PairwiseOptions options;
  options.pisa = pisa::app_specific_options(workflow, ccr, seed);
  options.pisa.restarts = scaled_count(5, 5);
  const auto grid = pisa::pairwise_compare(roster, options, seed);

  char title[128];
  std::snprintf(title, sizeof(title), "%s (CCR = %.1f)", workflow.c_str(), ccr);
  const auto table = analysis::app_specific_table(benchmark, grid, title);
  std::printf("\n%s\n", table.render().c_str());

  const auto csv = analysis::maybe_write_csv(
      workflow + "_ccr" + std::to_string(ccr),
      [&](std::ostream& out) { analysis::write_pairwise_csv(out, grid); });
  if (!csv.empty()) std::printf("wrote %s\n", csv.c_str());
  return grid;
}

/// The paper's five CCRs.
inline const std::vector<double>& paper_ccrs() {
  static const std::vector<double> ccrs = {0.2, 0.5, 1.0, 2.0, 5.0};
  return ccrs;
}

/// Full per-workflow experiment: all five CCRs.
inline void run_app_specific_workflow(const std::string& workflow, std::uint64_t seed) {
  for (double ccr : paper_ccrs()) {
    ScopedTimer timer(workflow + " ccr=" + std::to_string(ccr));
    (void)run_app_specific_cell(workflow, ccr, derive_seed(seed, {static_cast<std::uint64_t>(ccr * 10)}));
  }
}

}  // namespace saga::bench
