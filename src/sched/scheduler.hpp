#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "graph/problem_instance.hpp"
#include "sched/schedule.hpp"

/// \file scheduler.hpp
/// Common interface of every scheduling algorithm (the paper's Table I and
/// the extensions), and ListScheduler, the skeleton of the ones that place
/// tasks one at a time on a TimelineBuilder.

namespace saga {

class TimelineArena;
class TimelineBuilder;

/// Seed for a randomized scheduler whose caller has no seed stream of its
/// own (`saga schedule`, atlas entries, the golden makespans), so that
/// such results are reproducible.
inline constexpr std::uint64_t kDefaultSchedulerSeed = 0x5a6a0001ULL;

/// Network-model restrictions a scheduler was designed for. The paper's
/// PISA setup honours these by fixing the corresponding weights to 1 and
/// excluding them from perturbation (Section VI): ETF, FCP and FLB assume
/// homogeneous node speeds; BIL, GDL, FCP and FLB assume homogeneous link
/// strengths.
struct NetworkRequirements {
  bool homogeneous_node_speeds = false;
  bool homogeneous_link_strengths = false;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Short display name matching the paper's tables ("HEFT", "CPoP", ...).
  [[nodiscard]] virtual std::string_view name() const = 0;

  [[nodiscard]] virtual NetworkRequirements requirements() const { return {}; }

  /// Produces a valid schedule for the instance. Implementations are
  /// deterministic: randomized schedulers (WBA) derive their stream from a
  /// constructor-provided seed.
  ///
  /// `arena` supplies the shared evaluation kernel's cached InstanceView
  /// and recycled timeline scratch (see sched/arena.hpp); hot loops such as
  /// PISA pass one arena per worker thread so repeated calls are
  /// allocation-free. A null arena is always valid and falls back to
  /// one-shot state. The schedule produced is identical either way.
  [[nodiscard]] virtual Schedule schedule(const ProblemInstance& inst,
                                          TimelineArena* arena) const = 0;

  /// Makespan of the schedule this scheduler would produce, without
  /// materializing the Schedule object. Bit-identical to
  /// `schedule(inst, arena).makespan()` — the hot-loop form for objectives
  /// (PISA evaluates two schedulers per annealing step and only needs the
  /// scalar). The default forwards to schedule(); ListScheduler reads the
  /// timeline's running makespan instead, which skips the Schedule
  /// allocation entirely, and composites forward to their members' plans.
  [[nodiscard]] virtual double plan_makespan(const ProblemInstance& inst,
                                             TimelineArena* arena) const {
    return schedule(inst, arena).makespan();
  }

  /// Legacy entry point, kept as a forwarding shim so existing callers
  /// don't break. Schedulers that override schedule() re-export it via
  /// `using Scheduler::schedule;` (ListScheduler does so for its subclasses).
  [[nodiscard]] Schedule schedule(const ProblemInstance& inst) const {
    return schedule(inst, nullptr);
  }
};

/// A list scheduler: one pass that places every task on a single
/// TimelineBuilder. Subclasses implement only build(); schedule() and
/// plan_makespan() run it on a builder over `arena` and read the placements
/// out as a Schedule or as the running makespan, so the two agree by
/// construction.
class ListScheduler : public Scheduler {
 public:
  using Scheduler::schedule;
  [[nodiscard]] Schedule schedule(const ProblemInstance& inst,
                                  TimelineArena* arena) const final;
  [[nodiscard]] double plan_makespan(const ProblemInstance& inst,
                                     TimelineArena* arena) const final;

 private:
  /// Places every task of `builder`'s instance.
  virtual void build(TimelineBuilder& builder) const = 0;
};

using SchedulerPtr = std::unique_ptr<Scheduler>;

}  // namespace saga
