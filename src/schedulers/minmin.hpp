#pragma once

#include <string_view>

#include "sched/scheduler.hpp"

namespace saga {

/// MinMin (Braun et al. 2001).
///
/// Repeatedly computes, for every ready task, the minimum completion time
/// across all nodes, then schedules the task whose minimum completion time
/// is smallest on its corresponding node; the ready-row table
/// (sched/ready_rows.hpp) keeps those minima current. Originally defined
/// for independent tasks; the ready-set formulation extends it to DAGs
/// (data-ready times are included in the completion time).
class MinMinScheduler final : public ListScheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "MinMin"; }

 private:
  void build(TimelineBuilder& builder) const override;
};

}  // namespace saga
