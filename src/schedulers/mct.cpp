#include "schedulers/mct.hpp"

#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

void MctScheduler::build(TimelineBuilder& builder) const {
  for (TaskId t : builder.view().topological_order()) {
    const auto choice = builder.best_eft(t, /*insertion=*/false);
    builder.place(t, choice.node, choice.start);
  }
}

void register_mct_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "MCT";
  desc.summary = "Minimum Completion Time (Armstrong et al. 1998): tasks in id order to the earliest-completing node";
  desc.tags = {"table1", "benchmark"};
  desc.factory = [](const SchedulerParams&, std::uint64_t) -> SchedulerPtr {
    return std::make_unique<MctScheduler>();
  };
  registry.add(std::move(desc));
}

}  // namespace saga
