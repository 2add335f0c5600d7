#include "schedulers/ert.hpp"

#include <limits>

#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

void ErtScheduler::build(TimelineBuilder& builder) const {
  const std::size_t nodes = builder.view().node_count();
  while (!builder.complete()) {
    // Ready task with the earliest minimum data-ready time across nodes.
    TaskId next = 0;
    double best_ready = std::numeric_limits<double>::infinity();
    bool found = false;
    for (TaskId t : builder.ready_tasks()) {
      const auto row = builder.data_ready_row(t);
      double ready = std::numeric_limits<double>::infinity();
      for (NodeId v = 0; v < nodes; ++v) ready = std::min(ready, row[v]);
      if (!found || ready < best_ready) {
        best_ready = ready;
        next = t;
        found = true;
      }
    }

    const auto choice = builder.best_eft(next, /*insertion=*/false);
    builder.place(next, choice.node, choice.start);
  }
}

void register_ert_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "ERT";
  desc.summary = "Earliest Ready Task (Lee et al. 1988): dispatch the earliest-data-arrival ready task";
  desc.tags = {"extension"};
  desc.requirements.homogeneous_node_speeds = true;
  desc.factory = [](const SchedulerParams&, std::uint64_t) -> SchedulerPtr {
    return std::make_unique<ErtScheduler>();
  };
  registry.add(std::move(desc));
}

}  // namespace saga
