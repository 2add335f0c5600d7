#pragma once

#include <string_view>

#include "sched/scheduler.hpp"

namespace saga {

/// BIL — Best Imaginary Level (Oh & Ha 1996).
///
/// The best imaginary level of task t on node v is the length of the
/// shortest possible completion path assuming ideal downstream decisions:
///
///   BIL(t, v) = w(t, v) + max over successors s of
///               min( BIL(s, v),                          — stay on v
///                    min over v' != v of
///                        BIL(s, v') + c(t, s)/s(v, v') ) — migrate
///
/// Tasks are selected by decreasing best imaginary makespan
/// BIM(t, v) = EST(t, v) + BIL(t, v) minimised over nodes (the original
/// paper's revised-BIM processor-ordering refinements are folded into this
/// selection; see the implementation note in bil.cpp). The BIL table costs
/// O(|E| |V|^2) in the worst case; above 8 nodes each successor's row is
/// scanned in ascending level order and the scan stops once no lane can
/// improve, which on real networks visits a few lanes per (edge, node).
/// Selection runs on the ready-row table (sched/ready_rows.hpp).
/// Designed for homogeneous link strengths (paper Section VI pins BIL's
/// links to 1).
class BilScheduler final : public ListScheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "BIL"; }
  [[nodiscard]] NetworkRequirements requirements() const override {
    return {.homogeneous_node_speeds = false, .homogeneous_link_strengths = true};
  }

 private:
  void build(TimelineBuilder& builder) const override;
};

}  // namespace saga
