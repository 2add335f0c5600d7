#pragma once

#include <string_view>

#include "sched/scheduler.hpp"

namespace saga {

/// FLB — Fast Load Balancing (Radulescu & van Gemund 2000).
///
/// Companion to FCP with the opposite emphasis: instead of following a
/// static critical-path priority, FLB repeatedly schedules the ready task
/// that can *finish earliest* right now, keeping all processors as busy as
/// possible. As in FCP, only two candidate nodes are examined per task (the
/// earliest-idle node and the task's enabling node). Designed for
/// homogeneous node speeds and link strengths.
class FlbScheduler final : public ListScheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "FLB"; }
  [[nodiscard]] NetworkRequirements requirements() const override {
    return {.homogeneous_node_speeds = true, .homogeneous_link_strengths = true};
  }

 private:
  void build(TimelineBuilder& builder) const override;
};

}  // namespace saga
