#include "schedulers/minmin.hpp"

#include "sched/ready_rows.hpp"
#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

void MinMinScheduler::build(TimelineBuilder& builder) const {
  ReadyRows rows(builder, [](TaskId, NodeId, double, double finish) { return finish; });
  while (!builder.complete()) {
    const TaskId t = rows.least_key_task();  // least minimum completion time
    rows.place(t, rows.best_node(t));
  }
}

void register_minmin_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "MinMin";
  desc.summary = "MinMin (Braun et al. 2001): smallest minimum-completion-time ready task goes first";
  desc.tags = {"table1", "benchmark", "app-specific"};
  desc.factory = [](const SchedulerParams&, std::uint64_t) -> SchedulerPtr {
    return std::make_unique<MinMinScheduler>();
  };
  registry.add(std::move(desc));
}

}  // namespace saga
