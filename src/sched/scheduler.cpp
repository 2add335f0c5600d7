#include "sched/scheduler.hpp"

#include "sched/timeline.hpp"

namespace saga {

Schedule ListScheduler::schedule(const ProblemInstance& inst, TimelineArena* arena) const {
  TimelineBuilder builder(inst, arena);
  build(builder);
  return builder.to_schedule();
}

double ListScheduler::plan_makespan(const ProblemInstance& inst, TimelineArena* arena) const {
  TimelineBuilder builder(inst, arena);
  build(builder);
  return builder.current_makespan();
}

}  // namespace saga
