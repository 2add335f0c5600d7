#include "schedulers/cpop.hpp"

#include <limits>
#include <vector>

#include "sched/ranks.hpp"
#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

void CpopScheduler::build(TimelineBuilder& builder) const {
  const InstanceView& view = builder.view();
  const std::size_t tasks = view.task_count();
  auto& ws = builder.workspace();
  std::vector<double>& up = ws.d0;
  std::vector<double>& down = ws.d1;
  std::vector<double>& priority = ws.d2;
  upward_ranks(view, up);
  downward_ranks(view, down);

  priority.resize(tasks);
  for (TaskId t = 0; t < tasks; ++t) priority[t] = up[t] + down[t];

  // Critical-path tasks and the processor they are pinned to. The general
  // CPoP rule picks the node minimising the summed execution time of the
  // critical path; under related machines every task is fastest on the same
  // node, but we evaluate the sum anyway so the implementation stays honest
  // to the published algorithm.
  std::vector<TaskId>& cp = ws.tasks;
  critical_path(view, up, down, cp);
  std::vector<char>& on_cp = ws.flags;
  on_cp.assign(tasks, 0);
  for (TaskId t : cp) on_cp[t] = 1;
  NodeId cp_node = 0;
  double best_total = std::numeric_limits<double>::infinity();
  for (NodeId v = 0; v < view.node_count(); ++v) {
    double total = 0.0;
    for (TaskId t : cp) total += view.exec_time(t, v);
    if (total < best_total) {
      best_total = total;
      cp_node = v;
    }
  }

  while (!builder.complete()) {
    TaskId next = 0;
    double best_priority = -1.0;
    bool found = false;
    for (TaskId t : builder.ready_tasks()) {
      if (!found || priority[t] > best_priority) {
        next = t;
        best_priority = priority[t];
        found = true;
      }
    }

    if (on_cp[next] != 0) {
      builder.place_earliest(next, cp_node, /*insertion=*/true);
      continue;
    }
    const auto choice = builder.best_eft(next, /*insertion=*/true);
    builder.place(next, choice.node, choice.start);
  }
}

void register_cpop_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "CPoP";
  desc.summary = "Critical Path on Processor (Topcuoglu et al. 1999): up+down rank, critical path pinned to one node";
  desc.tags = {"table1", "benchmark", "app-specific"};
  desc.factory = [](const SchedulerParams&, std::uint64_t) -> SchedulerPtr {
    return std::make_unique<CpopScheduler>();
  };
  registry.add(std::move(desc));
}

}  // namespace saga
