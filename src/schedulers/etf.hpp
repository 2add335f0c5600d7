#pragma once

#include <string_view>

#include "sched/scheduler.hpp"

namespace saga {

/// ETF — Earliest Task First (Hwang, Chow, Anger & Lee 1989).
///
/// At every step, among all (ready task, node) pairs, schedule the pair with
/// the earliest possible *start* time (not finish time — the property that
/// enables the published (2 - 1/n)·ω_opt + C bound). Ties are broken by the
/// higher static level, then by task id. Selection runs on the ready-row
/// table (sched/ready_rows.hpp). Designed for homogeneous node speeds,
/// which `requirements` declares so PISA pins node weights to 1.
class EtfScheduler final : public ListScheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "ETF"; }
  [[nodiscard]] NetworkRequirements requirements() const override {
    return {.homogeneous_node_speeds = true, .homogeneous_link_strengths = false};
  }

 private:
  void build(TimelineBuilder& builder) const override;
};

}  // namespace saga
