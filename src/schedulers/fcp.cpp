#include "schedulers/fcp.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "sched/ranks.hpp"
#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

namespace {

/// The node where the predecessor whose message arrives last was placed.
/// Falls back to node 0 for source tasks.
NodeId enabling_node(const TimelineBuilder& builder, TaskId t) {
  const InstanceView& view = builder.view();
  NodeId enabler = 0;
  double last_arrival = -1.0;
  for (const auto& edge : view.predecessors(t)) {
    const auto& pa = builder.assignment_of(edge.task);
    // Arrival as seen from a *different* node — the cost the enabling
    // placement would save.
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

void FcpScheduler::build(TimelineBuilder& builder) const {
  const InstanceView& view = builder.view();
  auto& ws = builder.workspace();
  std::vector<double>& rank = ws.d0;
  upward_ranks(view, rank);

  // Max-heap of ready tasks by static priority (upward rank, then id), kept
  // in a workspace vector so a warm arena plans without allocating.
  const auto cmp = [&rank](TaskId a, TaskId b) {
    if (rank[a] != rank[b]) return rank[a] < rank[b];
    return a > b;
  };
  std::vector<TaskId>& ready = ws.tasks;
  ready.clear();
  const auto push = [&](TaskId t) {
    ready.push_back(t);
    std::push_heap(ready.begin(), ready.end(), cmp);
  };
  for (TaskId t : builder.ready_tasks()) push(t);

  while (!ready.empty()) {
    std::pop_heap(ready.begin(), ready.end(), cmp);
    const TaskId t = ready.back();
    ready.pop_back();

    // Candidate 1: earliest-idle node.
    const auto avail = builder.node_available_row();
    NodeId idle_node = 0;
    for (NodeId v = 1; v < view.node_count(); ++v) {
      if (avail[v] < avail[idle_node]) idle_node = v;
    }
    // Candidate 2: the enabling node.
    const NodeId enabler = enabling_node(builder, t);

    const double f_idle = builder.earliest_finish(t, idle_node, /*insertion=*/false);
    const double f_enab = builder.earliest_finish(t, enabler, /*insertion=*/false);
    const NodeId chosen = f_enab <= f_idle ? enabler : idle_node;

    builder.place_earliest(t, chosen, /*insertion=*/false);
    for (const auto& edge : view.successors(t)) {
      if (builder.ready(edge.task)) push(edge.task);
    }
  }
}

void register_fcp_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "FCP";
  desc.summary = "Fast Critical Path (Radulescu & van Gemund 2000): static rank queue, two candidate nodes per task";
  desc.tags = {"table1", "benchmark"};
  desc.requirements.homogeneous_node_speeds = true;
  desc.requirements.homogeneous_link_strengths = true;
  desc.factory = [](const SchedulerParams&, std::uint64_t) -> SchedulerPtr {
    return std::make_unique<FcpScheduler>();
  };
  registry.add(std::move(desc));
}

}  // namespace saga
