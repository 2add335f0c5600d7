#include "schedulers/lmt.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "sched/ranks.hpp"
#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

void LmtScheduler::build(TimelineBuilder& builder) const {
  const InstanceView& view = builder.view();
  const std::size_t tasks = view.task_count();

  // Levelise: level(t) = longest hop-distance from any source.
  std::vector<std::size_t> level(tasks, 0);
  std::size_t max_level = 0;
  for (TaskId t : view.topological_order()) {
    for (const auto& edge : view.predecessors(t)) {
      level[t] = std::max(level[t], level[edge.task] + 1);
    }
    max_level = std::max(max_level, level[t]);
  }

  std::vector<double> mean_exec;
  mean_exec_times(view, mean_exec);
  std::vector<TaskId> layer;  // hoisted scratch: reuses capacity across levels
  for (std::size_t current = 0; current <= max_level; ++current) {
    layer.clear();
    for (TaskId t = 0; t < tasks; ++t) {
      if (level[t] == current) layer.push_back(t);
    }
    // Biggest tasks first within the level.
    std::stable_sort(layer.begin(), layer.end(), [&](TaskId a, TaskId b) {
      return mean_exec[a] > mean_exec[b];
    });
    for (TaskId t : layer) {
      NodeId best_node = 0;
      double best_finish = std::numeric_limits<double>::infinity();
      for (NodeId v = 0; v < view.node_count(); ++v) {
        const double finish = builder.earliest_finish(t, v, /*insertion=*/false);
        if (finish < best_finish) {
          best_finish = finish;
          best_node = v;
        }
      }
      builder.place_earliest(t, best_node, /*insertion=*/false);
    }
  }
}

void register_lmt_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "LMT";
  desc.aliases = {"LevelizedMinTime"};
  desc.summary = "Levelized Min Time: levelise by dependency depth, min-time assignment per level";
  desc.tags = {"extension"};
  desc.factory = [](const SchedulerParams&, std::uint64_t) -> SchedulerPtr {
    return std::make_unique<LmtScheduler>();
  };
  registry.add(std::move(desc));
}

}  // namespace saga
