#include "schedulers/met.hpp"

#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

void MetScheduler::build(TimelineBuilder& builder) const {
  const InstanceView& view = builder.view();
  for (TaskId t : view.topological_order()) {
    // Smallest execution time; first (lowest-id) node wins ties.
    NodeId best_node = 0;
    double best_exec = builder.exec_time(t, 0);
    for (NodeId v = 1; v < view.node_count(); ++v) {
      const double exec = builder.exec_time(t, v);
      if (exec < best_exec) {
        best_exec = exec;
        best_node = v;
      }
    }
    builder.place_earliest(t, best_node, /*insertion=*/false);
  }
}

void register_met_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "MET";
  desc.summary = "Minimum Execution Time (Armstrong et al. 1998): each task to its fastest node, availability ignored";
  desc.tags = {"table1", "benchmark"};
  desc.factory = [](const SchedulerParams&, std::uint64_t) -> SchedulerPtr {
    return std::make_unique<MetScheduler>();
  };
  registry.add(std::move(desc));
}

}  // namespace saga
