#pragma once

#include <cstdint>
#include <string_view>

#include "sched/scheduler.hpp"

namespace saga {

/// HEFT — Heterogeneous Earliest Finish Time (Topcuoglu, Hariri & Wu 1999).
///
/// List scheduler, O(|T|^2 |V|): tasks are prioritised by upward rank
/// (mean execution time plus the longest mean-cost chain to a sink) and
/// greedily placed on the node minimising the task's earliest finish time,
/// using insertion-based policy (a task may fill an idle gap between
/// already-scheduled tasks).
///
/// `Variant` exposes the two knobs the follow-up literature studies (Zhao
/// & Sakellariou 2003 show the rank statistic alone changes makespans by
/// up to ~50% on some graphs): which per-node execution-time statistic
/// feeds the upward rank, and whether placement may use insertion. The
/// default variant is the published algorithm; `bench_heft_variants`
/// compares the alternatives.
class HeftScheduler final : public ListScheduler {
 public:
  enum class RankStatistic : std::uint8_t {
    kMean,   // the published rank: average execution time over nodes
    kBest,   // fastest-node execution time
    kWorst,  // slowest-node execution time
  };

  struct Variant {
    RankStatistic rank = RankStatistic::kMean;
    bool insertion = true;
  };

  HeftScheduler() = default;
  explicit HeftScheduler(const Variant& variant) : variant_(variant) {}

  [[nodiscard]] std::string_view name() const override { return "HEFT"; }

  [[nodiscard]] const Variant& variant() const noexcept { return variant_; }

 private:
  void build(TimelineBuilder& builder) const override;

  Variant variant_;
};

}  // namespace saga
