#include "schedulers/olb.hpp"

#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

void OlbScheduler::build(TimelineBuilder& builder) const {
  const std::size_t nodes = builder.view().node_count();
  for (TaskId t : builder.view().topological_order()) {
    const auto avail = builder.node_available_row();
    NodeId best_node = 0;
    double best_available = avail[0];
    for (NodeId v = 1; v < nodes; ++v) {
      if (avail[v] < best_available) {
        best_available = avail[v];
        best_node = v;
      }
    }
    builder.place_earliest(t, best_node, /*insertion=*/false);
  }
}

void register_olb_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "OLB";
  desc.summary = "Opportunistic Load Balancing (Armstrong et al. 1998): earliest-available node, costs ignored";
  desc.tags = {"table1", "benchmark"};
  desc.factory = [](const SchedulerParams&, std::uint64_t) -> SchedulerPtr {
    return std::make_unique<OlbScheduler>();
  };
  registry.add(std::move(desc));
}

}  // namespace saga
