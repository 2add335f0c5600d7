#include "schedulers/heft.hpp"

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "sched/ranks.hpp"
#include "sched/timeline.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

namespace {

/// Upward ranks with a configurable per-node execution-time statistic
/// (mean reproduces sched/ranks.hpp's upward_ranks exactly).
void variant_upward_ranks(const InstanceView& view, HeftScheduler::RankStatistic statistic,
                          std::vector<double>& rank) {
  const double inv_strength = view.mean_inverse_strength();

  // Per-task execution-time statistic over nodes.
  double stat_factor = 0.0;  // multiplier on task cost
  switch (statistic) {
    case HeftScheduler::RankStatistic::kMean:
      stat_factor = view.mean_inverse_speed();
      break;
    case HeftScheduler::RankStatistic::kBest: {
      double best = std::numeric_limits<double>::infinity();
      for (NodeId v = 0; v < view.node_count(); ++v) {
        best = std::min(best, 1.0 / view.node_speed(v));
      }
      stat_factor = best;
      break;
    }
    case HeftScheduler::RankStatistic::kWorst: {
      double worst = 0.0;
      for (NodeId v = 0; v < view.node_count(); ++v) {
        worst = std::max(worst, 1.0 / view.node_speed(v));
      }
      stat_factor = worst;
      break;
    }
  }

  rank.assign(view.task_count(), 0.0);
  const auto order = view.topological_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId t = *it;
    double tail = 0.0;
    for (const auto& edge : view.successors(t)) {
      tail = std::max(tail, edge.cost * inv_strength + rank[edge.task]);
    }
    rank[t] = view.task_cost(t) * stat_factor + tail;
  }
}

}  // namespace

void HeftScheduler::build(TimelineBuilder& builder) const {
  auto& ws = builder.workspace();
  std::vector<double>& rank = ws.d0;
  variant_upward_ranks(builder.view(), variant_.rank, rank);

  // Process tasks by decreasing upward rank. With strictly positive task
  // costs this order is topological on its own; zero-cost tasks (which PISA
  // can produce) may tie with their neighbours, so we select from the ready
  // set instead of a pre-sorted list — identical behaviour when ranks are
  // strict, and always precedence-safe.
  while (!builder.complete()) {
    TaskId next = 0;
    double best_rank = -1.0;
    bool found = false;
    for (TaskId t : builder.ready_tasks()) {
      if (!found || rank[t] > best_rank) {
        next = t;
        best_rank = rank[t];
        found = true;
      }
    }
    const auto choice = builder.best_eft(next, variant_.insertion);
    builder.place(next, choice.node, choice.start);
  }
}

void register_heft_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "HEFT";
  desc.summary = "Heterogeneous Earliest Finish Time (Topcuoglu et al. 1999): upward-rank priority, insertion-based EFT placement";
  desc.tags = {"table1", "benchmark", "app-specific"};
  desc.params = {
      {"rank", "upward-rank statistic: mean|best|worst (default mean)"},
      {"insertion", "insertion-based placement: true|false (default true)"},
  };
  desc.factory = [](const SchedulerParams& params, std::uint64_t) -> SchedulerPtr {
    HeftScheduler::Variant variant;
    const std::string rank = params.get_string("rank", "mean");
    if (rank == "best") {
      variant.rank = HeftScheduler::RankStatistic::kBest;
    } else if (rank == "worst") {
      variant.rank = HeftScheduler::RankStatistic::kWorst;
    } else if (rank != "mean") {
      throw std::invalid_argument(
          "scheduler 'HEFT' parameter 'rank': expected mean|best|worst, got '" + rank +
          "'");
    }
    variant.insertion = params.get_bool("insertion", true);
    return std::make_unique<HeftScheduler>(variant);
  };
  registry.add(std::move(desc));
}

}  // namespace saga
