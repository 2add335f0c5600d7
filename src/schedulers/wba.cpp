#include "schedulers/wba.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "sched/ready_rows.hpp"
#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

void WbaScheduler::build(TimelineBuilder& builder) const {
  Rng rng(seed_);
  const std::size_t nodes = builder.view().node_count();
  // Per ready slot: how many of the task's options fall inside the band.
  std::vector<std::uint32_t>& in_band = builder.workspace().idx;
  ReadyRows rows(builder, [](TaskId, NodeId, double, double finish) { return finish; });

  while (!builder.complete()) {
    // The options are every (ready task, node) pair in (task, node) order,
    // each scored by how much it would increase the current makespan. That
    // increase is monotone in the finish time, so a row's least and largest
    // increase come from its least and largest finish.
    const double current = builder.current_makespan();
    const auto increase = [current](double finish) { return std::max(0.0, finish - current); };
    const auto ready = rows.tasks();
    double min_finish = std::numeric_limits<double>::infinity();
    double max_finish = -std::numeric_limits<double>::infinity();
    for (const TaskId t : ready) {
      min_finish = std::min(min_finish, rows.best_key(t));
      max_finish = std::max(max_finish, rows.max_finish(t));
    }
    const double min_inc = increase(min_finish);
    const double max_inc = increase(max_finish);

    // Keep every option within the tolerance band of the least increase and
    // choose uniformly among them. Whole rows fall inside or outside the
    // band without a lane scan; only rows straddling its edge are scanned.
    const double limit = min_inc + tolerance_ * (max_inc - min_inc) + 1e-15;
    in_band.resize(ready.size());
    std::size_t count = 0;
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const TaskId t = ready[i];
      std::uint32_t n = 0;
      if (increase(rows.max_finish(t)) <= limit) {
        n = static_cast<std::uint32_t>(nodes);
      } else if (increase(rows.best_key(t)) <= limit) {
        for (NodeId v = 0; v < nodes; ++v) n += increase(rows.finish(t, v)) <= limit ? 1 : 0;
      }
      in_band[i] = n;
      count += n;
    }
    // The least-increase option is always inside a band of width >= 0.
    assert(count > 0);
    std::size_t chosen = rng.index(count);
    std::size_t slot = 0;
    while (chosen >= in_band[slot]) chosen -= in_band[slot++];
    const TaskId task = ready[slot];
    NodeId node = 0;
    for (;; ++node) {
      if (increase(rows.finish(task, node)) <= limit && chosen-- == 0) break;
    }
    rows.place(task, node);
  }
}

void register_wba_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "WBA";
  desc.summary = "Workflow-Based Allocation (Blythe et al. 2005): randomized greedy, least makespan increase per step";
  desc.tags = {"table1", "benchmark", "app-specific"};
  desc.randomized = true;
  desc.params = {{"tolerance", "width of the random-choice band in [0,1] (default 0.5)"}};
  desc.factory = [](const SchedulerParams& params, std::uint64_t seed) -> SchedulerPtr {
    const double tolerance = params.get_double("tolerance", 0.5);
    if (!(tolerance >= 0.0 && tolerance <= 1.0)) {
      params.reject("tolerance", "a number in [0, 1]");
    }
    return std::make_unique<WbaScheduler>(seed, tolerance);
  };
  registry.add(std::move(desc));
}

}  // namespace saga
