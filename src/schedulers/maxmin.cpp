#include "schedulers/maxmin.hpp"

#include "sched/ready_rows.hpp"
#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

namespace {

void build_maxmin(TimelineBuilder& builder) {
  ReadyRows rows(builder, [](TaskId, NodeId, double, double finish) { return finish; });
  while (!builder.complete()) {
    const TaskId t = rows.greatest_key_task();  // largest minimum completion time
    rows.place(t, rows.best_node(t));
  }
}

}  // namespace

Schedule MaxMinScheduler::schedule(const ProblemInstance& inst, TimelineArena* arena) const {
  TimelineBuilder builder(inst, arena);
  build_maxmin(builder);
  return builder.to_schedule();
}

double MaxMinScheduler::plan_makespan(const ProblemInstance& inst,
                                      TimelineArena* arena) const {
  TimelineBuilder builder(inst, arena);
  build_maxmin(builder);
  return builder.current_makespan();
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
