#pragma once

#include <string_view>

#include "sched/scheduler.hpp"

namespace saga {

/// MET — Minimum Execution Time (Armstrong, Hensgen & Kidd 1998).
///
/// Assigns each task to the node with the smallest execution time,
/// regardless of node availability, O(|T| |V|). Under the related machines
/// model every task's fastest node is the same, so MET degenerates to
/// serialising the whole graph on the fastest node — one of the behaviours
/// the paper's adversarial analysis exposes.
class MetScheduler final : public ListScheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "MET"; }

 private:
  void build(TimelineBuilder& builder) const override;
};

}  // namespace saga
