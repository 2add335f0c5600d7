#pragma once

#include <string_view>

#include "sched/scheduler.hpp"

namespace saga {

/// LMT — Levelized Min Time.
///
/// The third comparison baseline in the HEFT/CPoP paper (whose original
/// source the paper notes it could not locate; we follow the standard
/// description). The task graph is levelised by dependency depth — level 0
/// holds the sources, level k the tasks all of whose predecessors sit in
/// levels < k with at least one in k-1. Levels are processed in order;
/// within a level, tasks are considered by decreasing mean execution time
/// (big tasks claim fast nodes first) and placed on the node minimising
/// their completion time. Extension scheduler (paper future work), not in
/// the 15-scheduler benchmark roster.
class LmtScheduler final : public ListScheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "LMT"; }

 private:
  void build(TimelineBuilder& builder) const override;
};

}  // namespace saga
