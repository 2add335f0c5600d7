#include "schedulers/bil.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "sched/ready_rows.hpp"
#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

namespace {

/// Above this many nodes the level table visits each successor's lanes in
/// ascending level order and stops early (see BilScheduler::build); at or below it the
/// full vectorised sweep is cheaper than the sort.
constexpr std::size_t kSortedScanAboveNodes = 8;

/// min(best, succ_row[v2] + comm(v2)) over every lane v2, visiting lanes in
/// ascending (succ_row, lane) order and stopping at the first lane whose
/// level alone is >= best. Exact: comm >= 0 and rounding is monotone, so no
/// later lane can go below best, and min does not round.
template <class Comm>
double sorted_min(double best, const double* succ_row, const std::uint32_t* lanes,
                  std::size_t n_nodes, Comm comm) {
  for (std::size_t k = 0; k < n_nodes; ++k) {
    const std::uint32_t v2 = lanes[k];
    if (succ_row[v2] >= best) break;
    best = std::min(best, succ_row[v2] + comm(v2));
  }
  return best;
}

}  // namespace

void BilScheduler::build(TimelineBuilder& builder) const {
  const InstanceView& view = builder.view();
  const std::size_t tasks = view.task_count();
  const std::size_t n_nodes = view.node_count();
  auto& ws = builder.workspace();

  // BIL table (T*N, row per task), computed bottom-up over a reverse
  // topological order. The inner contention scan is a row sweep over the
  // dense strength table: the +inf diagonal makes `cost / strength[v]`
  // exactly the co-located 0, so no v2 == v branch is needed; min-folds are
  // insensitive to evaluation order, so the sweep is bit-identical to the
  // skip-the-diagonal loop it replaces. On wide networks each finished row
  // also records its lanes in ascending (level, lane) order (ws.idx), and
  // the scan over a successor's row walks that order and stops at the first
  // lane that cannot beat the best so far (sorted_min).
  std::vector<double>& bil = ws.d0;
  bil.assign(tasks * n_nodes, 0.0);
  const bool sorted = n_nodes > kSortedScanAboveNodes;
  std::vector<std::uint32_t>& lane_order = ws.idx;
  if (sorted) lane_order.resize(tasks * n_nodes);
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
        const double* comm = view.comm_row_or_null(succ_base + i, v);
        if (sorted) {
          const std::uint32_t* lanes = lane_order.data() + edge.task * n_nodes;
          // 0 / strength is +0.0, so the division covers zero-cost edges.
          best = comm != nullptr
                     ? sorted_min(best, succ_row, lanes, n_nodes,
                                  [comm](std::uint32_t v2) { return comm[v2]; })
                     : sorted_min(best, succ_row, lanes, n_nodes,
                                  [&edge, strength](std::uint32_t v2) {
                                    return edge.cost / strength[v2];
                                  });
        } else if (comm != nullptr) {
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
    // Only a row some predecessor will scan needs its lane order.
    if (sorted && !view.predecessors(t).empty()) {
      const double* row = bil.data() + t * n_nodes;
      std::uint32_t* lanes = lane_order.data() + t * n_nodes;
      std::iota(lanes, lanes + n_nodes, std::uint32_t{0});
      std::sort(lanes, lanes + n_nodes, [row](std::uint32_t a, std::uint32_t b) {
        return row[a] < row[b] || (row[a] == row[b] && a < b);
      });
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
