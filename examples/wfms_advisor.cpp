/// wfms_advisor — scheduler-portfolio selection for a Workflow Management
/// System (the paper's Section VII discussion / future-work idea).
///
/// "It may be reasonable for a WFMS to run a set of scheduling algorithms
/// that best covers the different types of client scientific workflows ...
/// a WFMS designer might run PISA and choose the three algorithms with the
/// combined minimum maximum makespan ratio."
///
/// Usage: wfms_advisor [portfolio_size] [instances_per_workflow] [seed]
///
/// For every (workflow, CCR) cell and every candidate scheduler, measures
/// the scheduler's worst makespan ratio over an in-family dataset, then
/// exhaustively picks the portfolio (set of k schedulers, where the WFMS
/// runs all k and keeps the best schedule) minimising the worst-case ratio
/// across all cells.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "analysis/benchmarking.hpp"
#include "common/rng.hpp"
#include "datasets/registry.hpp"
#include "sched/registry.hpp"

int main(int argc, char** argv) {
  using namespace saga;
  const std::size_t portfolio_size = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 3;
  const std::size_t instances = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 10;
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 42;

  const auto& registry = SchedulerRegistry::instance();
  const auto roster = registry.names("app-specific");
  const auto workflows_list = datasets::DatasetRegistry::instance().names("workflow");
  const std::vector<double> ccrs = {0.2, 1.0, 5.0};

  // makespans[cell][instance][scheduler].
  struct Cell {
    std::string label;
    std::vector<std::vector<double>> makespans;
  };
  std::vector<Cell> cells;
  std::printf("measuring %zu schedulers on %zu workflows x %zu CCRs x %zu instances...\n",
              roster.size(), workflows_list.size(), ccrs.size(), instances);
  for (const auto& workflow : workflows_list) {
    for (double ccr : ccrs) {
      Cell cell;
      cell.label = workflow + " (CCR=" + std::to_string(ccr).substr(0, 3) + ")";
      // The workflow's ccr= parameter re-pins every instance's links to the
      // CCR on the family's own seed stream.
      const auto source = datasets::DatasetRegistry::instance().make(
          workflow + "?ccr=" + std::to_string(ccr), seed);
      for (std::size_t i = 0; i < instances; ++i) {
        const auto inst = source->generate(i);
        std::vector<double> row;
        for (std::size_t s = 0; s < roster.size(); ++s) {
          const auto scheduler = registry.make(roster[s], derive_seed(seed, {s, i}));
          row.push_back(scheduler->schedule(inst).makespan());
        }
        cell.makespans.push_back(std::move(row));
      }
      cells.push_back(std::move(cell));
    }
  }

  // Worst-case ratio of a portfolio: per instance, the portfolio achieves
  // the min makespan of its members; ratio is against the best of ALL
  // schedulers; we take the max over instances and cells.
  const auto portfolio_score = [&](const std::vector<std::size_t>& members) {
    double worst = 1.0;
    for (const auto& cell : cells) {
      for (const auto& row : cell.makespans) {
        double best_all = std::numeric_limits<double>::infinity();
        for (double m : row) best_all = std::min(best_all, m);
        double best_portfolio = std::numeric_limits<double>::infinity();
        for (std::size_t s : members) best_portfolio = std::min(best_portfolio, row[s]);
        if (best_all > 0.0) worst = std::max(worst, best_portfolio / best_all);
      }
    }
    return worst;
  };

  // Exhaustive search over all portfolios of the requested size.
  std::vector<std::size_t> best_members;
  double best_score = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> indices(roster.size());
  for (std::size_t i = 0; i < roster.size(); ++i) indices[i] = i;
  std::vector<bool> mask(roster.size(), false);
  std::fill(mask.end() - static_cast<std::ptrdiff_t>(portfolio_size), mask.end(), true);
  do {
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < roster.size(); ++i) {
      if (mask[i]) members.push_back(i);
    }
    const double score = portfolio_score(members);
    if (score < best_score) {
      best_score = score;
      best_members = members;
    }
  } while (std::next_permutation(mask.begin(), mask.end()));

  std::printf("\nsingle-scheduler worst-case ratios:\n");
  for (std::size_t s = 0; s < roster.size(); ++s) {
    std::printf("  %-12s %.3f\n", roster[s].c_str(), portfolio_score({s}));
  }

  std::printf("\nbest portfolio of %zu (WFMS runs all, keeps the best schedule):\n ",
              portfolio_size);
  for (std::size_t s : best_members) std::printf(" %s", roster[s].c_str());
  std::printf("\n  worst-case ratio across all workflow/CCR cells: %.3f\n", best_score);
  return 0;
}
