#pragma once

#include <string_view>

#include "sched/scheduler.hpp"

namespace saga {

/// GDL — Generalized Dynamic Level scheduling, also known as DLS
/// (Sih & Lee 1993).
///
/// At every step, picks the (ready task, node) pair maximising the dynamic
/// level DL(t, v) = SL(t) − max(DAT(t, v), avail(v)) + Δ(t, v), where SL is
/// the static level (longest mean-execution chain to a sink, no
/// communication), DAT the data-available time of t on v, and
/// Δ(t, v) = w̄(t) − w(t, v) rewards nodes faster than average. Priorities
/// are kept current after every placement by the ready-row table
/// (sched/ready_rows.hpp), which re-evaluates only the pairs the placement
/// changed. Designed assuming homogeneous link strengths, which
/// `requirements` declares so PISA pins link weights to 1.
class GdlScheduler final : public ListScheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "GDL"; }
  [[nodiscard]] NetworkRequirements requirements() const override {
    return {.homogeneous_node_speeds = false, .homogeneous_link_strengths = true};
  }

 private:
  void build(TimelineBuilder& builder) const override;
};

}  // namespace saga
