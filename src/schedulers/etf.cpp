#include "schedulers/etf.hpp"

#include <vector>

#include "sched/ranks.hpp"
#include "sched/ready_rows.hpp"
#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

void EtfScheduler::build(TimelineBuilder& builder) const {
  const InstanceView& view = builder.view();
  auto& ws = builder.workspace();
  std::vector<double>& level = ws.d0;
  static_levels(view, level);
  ReadyRows rows(builder, [](TaskId, NodeId, double start, double) { return start; });
  while (!builder.complete()) {
    // Earliest start; ties go to the higher static level, then the lower id.
    const auto ready = rows.tasks();
    TaskId best = ready[0];
    for (const TaskId t : ready) {
      const double start = rows.best_key(t);
      const double best_start = rows.best_key(best);
      if (start < best_start || (start == best_start && level[t] > level[best])) best = t;
    }
    rows.place(best, rows.best_node(best));
  }
}

void register_etf_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "ETF";
  desc.summary = "Earliest Task First (Hwang et al. 1989): globally earliest start over (ready task, node) pairs";
  desc.tags = {"table1", "benchmark"};
  desc.requirements.homogeneous_node_speeds = true;
  desc.factory = [](const SchedulerParams&, std::uint64_t) -> SchedulerPtr {
    return std::make_unique<EtfScheduler>();
  };
  registry.add(std::move(desc));
}

}  // namespace saga
