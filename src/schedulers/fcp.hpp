#pragma once

#include <string_view>

#include "sched/scheduler.hpp"

namespace saga {

/// FCP — Fast Critical Path (Radulescu & van Gemund 2000).
///
/// A low-complexity list scheduler: ready tasks are kept in a priority
/// queue ordered by static upward rank, and — the key cost-saving idea —
/// only *two* candidate nodes are evaluated per task instead of all |V|:
///   1. the node that becomes idle earliest, and
///   2. the "enabling" node: where the predecessor sending the task's
///      last-arriving message ran (placing the task there voids that
///      message's communication delay).
/// The task goes to whichever of the two finishes it earlier.
/// O(|T| log |V| + |D|) in the original; ours is a faithful but simpler
/// O(|T| (log |T| + |V|)). Designed for homogeneous node speeds and link
/// strengths (the paper pins both to 1 for FCP in PISA runs).
class FcpScheduler final : public ListScheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "FCP"; }
  [[nodiscard]] NetworkRequirements requirements() const override {
    return {.homogeneous_node_speeds = true, .homogeneous_link_strengths = true};
  }

 private:
  void build(TimelineBuilder& builder) const override;
};

}  // namespace saga
