#pragma once

#include <cstdint>
#include <string_view>

#include "sched/scheduler.hpp"

namespace saga {

/// WBA — Workflow-Based Application scheduler (Blythe et al. 2005).
///
/// A randomized greedy scheduler from the scientific-workflow community:
/// at each step it evaluates, for every (ready task, node) pair, how much
/// the assignment would increase the current schedule makespan, then picks
/// uniformly at random among the pairs whose increase is within a tolerance
/// band [I_min, I_min + tolerance · (I_max − I_min)] of the best option —
/// "a distribution that favors choices that least increase the schedule
/// makespan" (paper Section IV-A). Rows come from the ready-row table
/// (sched/ready_rows.hpp); O(|T| |R| |V|) worst case for ready set R.
///
/// Deterministic for a fixed seed; the seed is a constructor parameter so
/// experiment drivers can derive independent streams.
class WbaScheduler final : public Scheduler {
 public:
  explicit WbaScheduler(std::uint64_t seed, double tolerance = 0.5)
      : seed_(seed), tolerance_(tolerance) {}

  [[nodiscard]] std::string_view name() const override { return "WBA"; }
  using Scheduler::schedule;
  [[nodiscard]] Schedule schedule(const ProblemInstance& inst,
                                  TimelineArena* arena) const override;
  [[nodiscard]] double plan_makespan(const ProblemInstance& inst,
                                     TimelineArena* arena) const override;

 private:
  std::uint64_t seed_;
  double tolerance_;
};

}  // namespace saga
