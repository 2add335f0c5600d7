#include "schedulers/gdl.hpp"

#include <vector>

#include "sched/ranks.hpp"
#include "sched/ready_rows.hpp"
#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

void GdlScheduler::build(TimelineBuilder& builder) const {
  const InstanceView& view = builder.view();
  auto& ws = builder.workspace();
  std::vector<double>& sl = ws.d0;
  std::vector<double>& mean_exec = ws.d1;
  static_levels(view, sl);
  mean_exec_times(view, mean_exec);
  // Key: the negated dynamic level, so the table's least key is the
  // greatest DL = SL - start + (mean exec - exec).
  ReadyRows rows(builder, [&](TaskId t, NodeId v, double start, double) {
    const double delta = mean_exec[t] - view.exec_time(t, v);
    return -(sl[t] - start + delta);
  });
  while (!builder.complete()) {
    const TaskId t = rows.least_key_task();  // greatest dynamic level
    rows.place(t, rows.best_node(t));
  }
}

void register_gdl_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "GDL";
  desc.aliases = {"DLS"};
  desc.summary = "Generalized Dynamic Level / DLS (Sih & Lee 1993): maximise static level minus availability";
  desc.tags = {"table1", "benchmark"};
  desc.requirements.homogeneous_link_strengths = true;
  desc.factory = [](const SchedulerParams&, std::uint64_t) -> SchedulerPtr {
    return std::make_unique<GdlScheduler>();
  };
  registry.add(std::move(desc));
}

}  // namespace saga
