#include "schedulers/maxmin.hpp"

#include "sched/ready_rows.hpp"
#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

void MaxMinScheduler::build(TimelineBuilder& builder) const {
  ReadyRows rows(builder, [](TaskId, NodeId, double, double finish) { return finish; });
  while (!builder.complete()) {
    const TaskId t = rows.greatest_key_task();  // largest minimum completion time
    rows.place(t, rows.best_node(t));
  }
}

void register_maxmin_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "MaxMin";
  desc.summary = "MaxMin (Braun et al. 2001): largest minimum-completion-time ready task goes first";
  desc.tags = {"table1", "benchmark", "app-specific"};
  desc.factory = [](const SchedulerParams&, std::uint64_t) -> SchedulerPtr {
    return std::make_unique<MaxMinScheduler>();
  };
  registry.add(std::move(desc));
}

}  // namespace saga
