#pragma once

#include <string_view>

#include "sched/scheduler.hpp"

namespace saga {

/// MH — Mapping Heuristic (El-Rewini & Lewis 1990).
///
/// The comparison baseline from the HEFT/CPoP paper, which describes it as
/// "similar to HEFT without insertion": tasks are prioritised by static
/// level (longest mean-execution chain to a sink, no communication) and
/// greedily placed on the node minimising their completion time with
/// append-only placement. Extension scheduler (paper future work), not in
/// the 15-scheduler benchmark roster.
class MhScheduler final : public ListScheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "MH"; }

 private:
  void build(TimelineBuilder& builder) const override;
};

}  // namespace saga
