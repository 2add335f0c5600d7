#pragma once

#include <string_view>

#include "sched/scheduler.hpp"

namespace saga {

/// CPoP — Critical Path on Processor (Topcuoglu, Hariri & Wu 1999).
///
/// List scheduler, O(|T|^2 |V|): task priority is rank_u + rank_d (distance
/// from the start plus distance to the end of the task graph). All tasks on
/// the critical path (those attaining the maximal priority) are committed to
/// the single node minimising the total execution time of the critical path
/// — under the related machines model, the fastest node. Remaining tasks are
/// placed on the node minimising their earliest finish time (insertion
/// policy), and tasks are dequeued from the ready set by priority.
class CpopScheduler final : public ListScheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "CPoP"; }

 private:
  void build(TimelineBuilder& builder) const override;
};

}  // namespace saga
