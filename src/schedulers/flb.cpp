#include "schedulers/flb.hpp"

#include <limits>
#include <vector>

#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

namespace {

/// The node of the predecessor whose data arrives last. Fixed once all of
/// t's predecessors are placed.
NodeId enabling_node(const TimelineBuilder& builder, TaskId t) {
  const InstanceView& view = builder.view();
  NodeId enabler = 0;
  double last_arrival = -1.0;
  for (const auto& edge : view.predecessors(t)) {
    const auto& pa = builder.assignment_of(edge.task);
    double worst = pa.finish;
    for (NodeId v = 0; v < view.node_count(); ++v) {
      const double arrival = pa.finish + view.comm_time(edge.cost, pa.node, v);
      worst = std::max(worst, arrival);
    }
    if (worst > last_arrival) {
      last_arrival = worst;
      enabler = pa.node;
    }
  }
  return enabler;
}

}  // namespace

void FlbScheduler::build(TimelineBuilder& builder) const {
  const InstanceView& view = builder.view();
  constexpr NodeId kUnknown = std::numeric_limits<NodeId>::max();
  // Each ready task's enabling node, computed once when first seen ready.
  std::vector<NodeId>& enabler = builder.workspace().nodes;
  enabler.assign(view.task_count(), kUnknown);
  while (!builder.complete()) {
    TaskId best_task = 0;
    NodeId best_node = 0;
    double best_finish = std::numeric_limits<double>::infinity();
    bool found = false;
    const auto avail = builder.node_available_row();
    NodeId idle_node = 0;
    for (NodeId v = 1; v < view.node_count(); ++v) {
      if (avail[v] < avail[idle_node]) idle_node = v;
    }
    for (TaskId t : builder.ready_tasks()) {
      if (enabler[t] == kUnknown) enabler[t] = enabling_node(builder, t);
      for (NodeId candidate : {idle_node, enabler[t]}) {
        const double finish = builder.earliest_finish(t, candidate, /*insertion=*/false);
        if (!found || finish < best_finish ||
            (finish == best_finish && t < best_task)) {
          best_finish = finish;
          best_task = t;
          best_node = candidate;
          found = true;
        }
      }
    }
    builder.place_earliest(best_task, best_node, /*insertion=*/false);
  }
}

void register_flb_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "FLB";
  desc.summary = "Fast Load Balancing (Radulescu & van Gemund 2000): earliest-finishing ready task, two-candidate placement";
  desc.tags = {"table1", "benchmark"};
  desc.requirements.homogeneous_node_speeds = true;
  desc.requirements.homogeneous_link_strengths = true;
  desc.factory = [](const SchedulerParams&, std::uint64_t) -> SchedulerPtr {
    return std::make_unique<FlbScheduler>();
  };
  registry.add(std::move(desc));
}

}  // namespace saga
