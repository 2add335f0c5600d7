#pragma once

#include <string_view>

#include "sched/scheduler.hpp"

namespace saga {

/// MaxMin (Braun et al. 2001).
///
/// Like MinMin, but schedules the ready task whose *minimum* completion time
/// is *largest* (on the node attaining that minimum): big tasks go first so
/// they don't serialise at the end. Selection runs on the ready-row table
/// (sched/ready_rows.hpp).
class MaxMinScheduler final : public ListScheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "MaxMin"; }

 private:
  void build(TimelineBuilder& builder) const override;
};

}  // namespace saga
