#pragma once

#include <string_view>

#include "sched/scheduler.hpp"

namespace saga {

/// FastestNode: serialises the whole task graph on the single fastest
/// compute node, in topological order. A deliberately naive baseline — yet
/// the paper's PISA results show popular heuristics losing to it by large
/// factors on instances where parallelisation backfires (Section VI-A).
class FastestNodeScheduler final : public ListScheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "FastestNode"; }

 private:
  void build(TimelineBuilder& builder) const override;
};

}  // namespace saga
