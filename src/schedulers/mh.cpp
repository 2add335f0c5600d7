#include "schedulers/mh.hpp"

#include <limits>
#include <vector>

#include "sched/ranks.hpp"
#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

void MhScheduler::build(TimelineBuilder& builder) const {
  const InstanceView& view = builder.view();
  std::vector<double> level;
  static_levels(view, level);
  while (!builder.complete()) {
    TaskId next = 0;
    double best_level = -1.0;
    bool found = false;
    for (TaskId t = 0; t < view.task_count(); ++t) {
      if (!builder.ready(t)) continue;
      if (!found || level[t] > best_level) {
        best_level = level[t];
        next = t;
        found = true;
      }
    }
    NodeId best_node = 0;
    double best_finish = std::numeric_limits<double>::infinity();
    for (NodeId v = 0; v < view.node_count(); ++v) {
      const double finish = builder.earliest_finish(next, v, /*insertion=*/false);
      if (finish < best_finish) {
        best_finish = finish;
        best_node = v;
      }
    }
    builder.place_earliest(next, best_node, /*insertion=*/false);
  }
}

void register_mh_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "MH";
  desc.aliases = {"MappingHeuristic"};
  desc.summary = "Mapping Heuristic (El-Rewini & Lewis 1990): static-level priority, contention-aware placement";
  desc.tags = {"extension"};
  desc.factory = [](const SchedulerParams&, std::uint64_t) -> SchedulerPtr {
    return std::make_unique<MhScheduler>();
  };
  registry.add(std::move(desc));
}

}  // namespace saga
