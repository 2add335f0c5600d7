#pragma once

#include <string_view>

#include "sched/scheduler.hpp"

namespace saga {

/// ERT — Earliest Ready Task (Lee, Hwang, Chow & Anger 1988).
///
/// The comparison baseline used in the FCP/FLB paper: among ready tasks,
/// repeatedly dispatch the one whose *data* becomes available earliest
/// (minimised over nodes, ignoring node availability), and place it on the
/// node minimising its finish time. Designed for homogeneous processors;
/// like ETF it predates fully heterogeneous models, so PISA pins node
/// speeds to 1 for it. Extension scheduler: part of the paper's "more
/// algorithms" future work, not of the 15-scheduler benchmark roster.
class ErtScheduler final : public ListScheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "ERT"; }
  [[nodiscard]] NetworkRequirements requirements() const override {
    return {.homogeneous_node_speeds = true, .homogeneous_link_strengths = false};
  }

 private:
  void build(TimelineBuilder& builder) const override;
};

}  // namespace saga
