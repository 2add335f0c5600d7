#include "schedulers/fastest_node.hpp"

#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

void FastestNodeScheduler::build(TimelineBuilder& builder) const {
  const NodeId fastest = builder.instance().network.fastest_node();
  for (TaskId t : builder.view().topological_order()) {
    builder.place_earliest(t, fastest, /*insertion=*/false);
  }
}

void register_fastest_node_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "FastestNode";
  desc.aliases = {"Fastest"};
  desc.summary = "Serial baseline: the whole graph in topological order on the single fastest node";
  desc.tags = {"table1", "benchmark", "app-specific"};
  desc.factory = [](const SchedulerParams&, std::uint64_t) -> SchedulerPtr {
    return std::make_unique<FastestNodeScheduler>();
  };
  registry.add(std::move(desc));
}

}  // namespace saga
