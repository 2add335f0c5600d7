#include "schedulers/bil.hpp"

#include <algorithm>
#include <vector>

#include "sched/ready_rows.hpp"
#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

namespace {

void build_bil(TimelineBuilder& builder) {
  const InstanceView& view = builder.view();
  const std::size_t tasks = view.task_count();
  const std::size_t n_nodes = view.node_count();
  auto& ws = builder.workspace();

  // BIL table (T*N, row per task), computed bottom-up over a reverse
  // topological order. The inner contention scan is a row sweep over the
  // dense strength table: the +inf diagonal makes `cost / strength[v]`
  // exactly the co-located 0, so no v2 == v branch is needed; min-folds are
  // insensitive to evaluation order, so the sweep is bit-identical to the
  // skip-the-diagonal loop it replaces.
  std::vector<double>& bil = ws.d0;
  bil.assign(tasks * n_nodes, 0.0);
  const auto order = view.topological_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId t = *it;
    const std::size_t succ_base = view.successors_base(t);
    const auto succs = view.successors(t);
    for (NodeId v = 0; v < n_nodes; ++v) {
      const double* strength = view.strength_row(v).data();
      double tail = 0.0;
      for (std::size_t i = 0; i < succs.size(); ++i) {
        const auto& edge = succs[i];
        const double* succ_row = bil.data() + edge.task * n_nodes;
        double best = succ_row[v];  // keep the successor co-located with t
        if (const double* comm = view.comm_row_or_null(succ_base + i, v)) {
          // Cached comm row: exactly cost / strength[v2] per lane (zero on
          // the diagonal and for zero-cost edges), division-free.
          for (NodeId v2 = 0; v2 < n_nodes; ++v2) {
            best = std::min(best, succ_row[v2] + comm[v2]);
          }
        } else if (edge.cost == 0.0) {
          // comm_time is 0 everywhere for a zero-size transfer.
          for (NodeId v2 = 0; v2 < n_nodes; ++v2) best = std::min(best, succ_row[v2]);
        } else {
          for (NodeId v2 = 0; v2 < n_nodes; ++v2) {
            best = std::min(best, succ_row[v2] + edge.cost / strength[v2]);
          }
        }
        tail = std::max(tail, best);
      }
      bil[t * n_nodes + v] = view.exec_time(t, v) + tail;
    }
  }

  // Selection. The original BIL orders ready tasks by their "best imaginary
  // makespan" and resolves contention with a revised BIM that accounts for
  // how many tasks compete for the same processor. We implement the core
  // rule — schedule the ready task with the largest best-case BIM (it is the
  // most constrained), on the node minimising its BIM — which preserves
  // BIL's optimality on linear chains: on a chain the single ready task goes
  // to the node minimising EST + BIL, the dynamic-programming optimum.
  ReadyRows rows(builder, [&](TaskId t, NodeId v, double start, double) {
    return start + bil[t * n_nodes + v];  // BIM
  });
  while (!builder.complete()) {
    const TaskId t = rows.greatest_key_task();  // largest best-case BIM
    rows.place(t, rows.best_node(t));
  }
}

}  // namespace

Schedule BilScheduler::schedule(const ProblemInstance& inst, TimelineArena* arena) const {
  TimelineBuilder builder(inst, arena);
  build_bil(builder);
  return builder.to_schedule();
}

double BilScheduler::plan_makespan(const ProblemInstance& inst, TimelineArena* arena) const {
  TimelineBuilder builder(inst, arena);
  build_bil(builder);
  return builder.current_makespan();
}


void register_bil_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "BIL";
  desc.summary = "Best Imaginary Level (Oh & Ha 1996): shortest ideal-completion-path priority, revised-BIM placement";
  desc.tags = {"table1", "benchmark"};
  desc.requirements.homogeneous_link_strengths = true;
  desc.factory = [](const SchedulerParams&, std::uint64_t) -> SchedulerPtr {
    return std::make_unique<BilScheduler>();
  };
  registry.add(std::move(desc));
}

}  // namespace saga
