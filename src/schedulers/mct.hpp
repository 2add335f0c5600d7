#pragma once

#include <string_view>

#include "sched/scheduler.hpp"

namespace saga {

/// MCT — Minimum Completion Time (Armstrong, Hensgen & Kidd 1998).
///
/// Assigns tasks in arbitrary (here: topological id) order to the node with
/// the smallest completion time given previous decisions — essentially HEFT
/// without its priority function or insertion policy. O(|T|^2 |V|).
class MctScheduler final : public ListScheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "MCT"; }

 private:
  void build(TimelineBuilder& builder) const override;
};

}  // namespace saga
