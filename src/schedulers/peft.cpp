#include "schedulers/peft.hpp"

#include <limits>
#include <vector>

#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

void PeftScheduler::build(TimelineBuilder& builder) const {
  const InstanceView& view = builder.view();
  const std::size_t tasks = view.task_count();
  const std::size_t n_nodes = view.node_count();
  const double inv_strength = view.mean_inverse_strength();

  // Optimistic cost table, bottom-up.
  std::vector<std::vector<double>> oct(tasks, std::vector<double>(n_nodes, 0.0));
  const auto order = view.topological_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId t = *it;
    for (NodeId v = 0; v < n_nodes; ++v) {
      double worst = 0.0;
      for (const auto& edge : view.successors(t)) {
        const double comm = edge.cost * inv_strength;
        double best = std::numeric_limits<double>::infinity();
        for (NodeId v2 = 0; v2 < n_nodes; ++v2) {
          const double value =
              oct[edge.task][v2] + view.exec_time(edge.task, v2) + (v2 != v ? comm : 0.0);
          best = std::min(best, value);
        }
        worst = std::max(worst, best);
      }
      oct[t][v] = worst;
    }
  }

  // rank_oct: mean OCT row.
  std::vector<double> rank(tasks, 0.0);
  for (TaskId t = 0; t < tasks; ++t) {
    double total = 0.0;
    for (NodeId v = 0; v < n_nodes; ++v) total += oct[t][v];
    rank[t] = total / static_cast<double>(n_nodes);
  }

  while (!builder.complete()) {
    TaskId next = 0;
    double best_rank = -1.0;
    bool found = false;
    for (TaskId t = 0; t < tasks; ++t) {
      if (!builder.ready(t)) continue;
      if (!found || rank[t] > best_rank) {
        next = t;
        best_rank = rank[t];
        found = true;
      }
    }
    NodeId best_node = 0;
    double best_oeft = std::numeric_limits<double>::infinity();
    for (NodeId v = 0; v < n_nodes; ++v) {
      const double oeft = builder.earliest_finish(next, v, /*insertion=*/true) + oct[next][v];
      if (oeft < best_oeft) {
        best_oeft = oeft;
        best_node = v;
      }
    }
    builder.place_earliest(next, best_node, /*insertion=*/true);
  }
}

void register_peft_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "PEFT";
  desc.summary = "Predict EFT (Arabnejad & Barbosa 2014): EFT placement with Optimistic Cost Table lookahead";
  desc.tags = {"extension"};
  desc.factory = [](const SchedulerParams&, std::uint64_t) -> SchedulerPtr {
    return std::make_unique<PeftScheduler>();
  };
  registry.add(std::move(desc));
}

}  // namespace saga
