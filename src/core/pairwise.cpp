#include "core/pairwise.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sched/arena.hpp"
#include "sched/registry.hpp"

namespace saga::pisa {

std::vector<double> PairwiseResult::worst_per_target() const {
  const std::size_t n = scheduler_names.size();
  std::vector<double> worst(n, -std::numeric_limits<double>::infinity());
  for (std::size_t col = 0; col < n; ++col) {
    for (std::size_t row = 0; row < n; ++row) {
      const double r = ratio[row][col];
      if (!std::isnan(r) && r > worst[col]) worst[col] = r;
    }
  }
  return worst;
}

CellSeeds pairwise_cell_seeds(std::uint64_t seed, std::size_t baseline_row,
                              std::size_t target_col) {
  return {derive_seed(seed, {0x7a26e7ULL, baseline_row, target_col}),
          derive_seed(seed, {0xba5eULL, baseline_row, target_col}),
          derive_seed(seed, {0xce11ULL, baseline_row, target_col})};
}

PairwiseResult pairwise_compare(const std::vector<std::string>& scheduler_names,
                                const PairwiseOptions& options, std::uint64_t seed) {
  const std::size_t n = scheduler_names.size();
  PairwiseResult result;
  result.scheduler_names = scheduler_names;
  result.ratio.assign(n, std::vector<double>(n, std::numeric_limits<double>::quiet_NaN()));
  result.best_instance.assign(n, std::vector<ProblemInstance>(n));

  // Flatten the off-diagonal cells into a work list.
  struct Cell {
    std::size_t row;  // baseline
    std::size_t col;  // target
  };
  std::vector<Cell> cells;
  cells.reserve(n * (n - 1));
  for (std::size_t row = 0; row < n; ++row) {
    for (std::size_t col = 0; col < n; ++col) {
      if (row != col) cells.push_back({row, col});
    }
  }

  const auto run_cell = [&](std::size_t i) {
    // Each worker thread owns one evaluation arena: its InstanceView is
    // refreshed in place as PISA perturbs weights and its timeline scratch
    // is recycled across every schedule() call the thread makes.
    static thread_local TimelineArena arena;
    const auto [row, col] = cells[i];
    // Fresh scheduler objects per cell: schedulers are stateless apart from
    // the randomized ones' seeds, which we derive per cell for independence.
    const CellSeeds seeds = pairwise_cell_seeds(seed, row, col);
    const auto& registry = SchedulerRegistry::instance();
    const auto baseline = registry.make(scheduler_names[row], seeds.baseline);
    const auto target = registry.make(scheduler_names[col], seeds.target);
    auto cell_result = run_pisa(*target, *baseline, options.pisa, seeds.anneal, &arena);
    result.ratio[row][col] = cell_result.best_ratio;
    result.best_instance[row][col] = std::move(cell_result.best_instance);
  };

  if (options.parallel) {
    (options.pool != nullptr ? *options.pool : global_pool())
        .parallel_for(cells.size(), run_cell);
  } else {
    for (std::size_t i = 0; i < cells.size(); ++i) run_cell(i);
  }
  return result;
}

}  // namespace saga::pisa
