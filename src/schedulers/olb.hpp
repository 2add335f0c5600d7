#pragma once

#include <string_view>

#include "sched/scheduler.hpp"

namespace saga {

/// OLB — Opportunistic Load Balancing (Armstrong, Hensgen & Kidd 1998).
///
/// Assigns tasks in arbitrary (topological id) order to the node that
/// becomes available earliest, ignoring execution and communication times
/// entirely. O(|T| |V|). Useful mainly as a baseline.
class OlbScheduler final : public ListScheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "OLB"; }

 private:
  void build(TimelineBuilder& builder) const override;
};

}  // namespace saga
