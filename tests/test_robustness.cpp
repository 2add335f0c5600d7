// Pins for stochastic::reexecute's edge cases and the Monte-Carlo
// robustness protocol built on it. reexecute is the plan-then-execute
// kernel the discrete-event simulator replays per job, so its exactness on
// degenerate plans (empty schedules, zero-cost tasks, tied planned starts)
// is load-bearing for the simulator's zero-fault guarantees too.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "graph/network.hpp"
#include "graph/problem_instance.hpp"
#include "graph/task_graph.hpp"
#include "sched/registry.hpp"
#include "sched/schedule.hpp"
#include "stochastic/robustness.hpp"
#include "stochastic/stochastic_instance.hpp"

namespace {

using namespace saga;
using stochastic::evaluate_robustness;
using stochastic::reexecute;
using stochastic::StochasticInstance;

// An empty planned schedule replays an empty instance to an empty schedule.
TEST(Reexecute, EmptyScheduleReplaysEmptyInstance) {
  const ProblemInstance empty;  // 1 node, no tasks
  const Schedule replayed = reexecute(Schedule{}, empty);
  EXPECT_EQ(replayed.size(), 0u);
  EXPECT_EQ(replayed.makespan(), 0.0);
}

// A plan that does not cover a task of the realized instance is a caller
// bug and throws rather than silently dropping work.
TEST(Reexecute, MissingTaskThrows) {
  ProblemInstance inst;
  inst.graph.add_task(1.0);
  inst.graph.add_task(2.0);
  Schedule partial;
  partial.add({0, 0, 0.0, 1.0});  // covers task 0 only
  EXPECT_THROW((void)reexecute(partial, inst), std::invalid_argument);
  EXPECT_THROW((void)reexecute(Schedule{}, inst), std::invalid_argument);
}

// Replaying a plan under the exact weights it was planned with reproduces
// it bit for bit — placements, starts, and finishes.
TEST(Reexecute, UnchangedWeightsReproduceThePlanExactly) {
  const ProblemInstance inst = fig1_instance();
  for (const std::string name : {"HEFT", "CPoP", "MinMin"}) {
    const Schedule planned =
        SchedulerRegistry::instance().make(name, kDefaultSchedulerSeed)->schedule(inst);
    const Schedule replayed = reexecute(planned, inst);
    ASSERT_EQ(replayed.size(), planned.size()) << name;
    for (const Assignment& a : planned.assignments()) {
      const Assignment& r = replayed.of_task(a.task);
      EXPECT_EQ(r.node, a.node) << name << " task " << a.task;
      EXPECT_EQ(r.start, a.start) << name << " task " << a.task;
      EXPECT_EQ(r.finish, a.finish) << name << " task " << a.task;
    }
    EXPECT_EQ(replayed.makespan(), planned.makespan()) << name;
  }
}

// Zero-cost tasks produce tied planned starts and finishes; the dispatch
// rank (start, finish, task id) keeps the replay order total, so the
// replay is still exact instead of order-dependent.
TEST(Reexecute, ZeroCostTiesReplayExactly) {
  ProblemInstance inst;
  inst.network = Network(1);
  const TaskId a = inst.graph.add_task(0.0);
  const TaskId b = inst.graph.add_task(0.0);
  const TaskId c = inst.graph.add_task(1.0);
  inst.graph.add_dependency(a, b, 0.0);
  inst.graph.add_dependency(b, c, 0.0);

  const Schedule planned =
      SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed)->schedule(inst);
  const Schedule replayed = reexecute(planned, inst);
  ASSERT_EQ(replayed.size(), 3u);
  for (const Assignment& p : planned.assignments()) {
    const Assignment& r = replayed.of_task(p.task);
    EXPECT_EQ(r.start, p.start) << "task " << p.task;
    EXPECT_EQ(r.finish, p.finish) << "task " << p.task;
  }
  EXPECT_TRUE(replayed.validate(inst).ok);
}

// Re-executing under perturbed weights still yields a valid timeline for
// the realized instance (no overlaps, dependencies respected).
TEST(Reexecute, RealizedScheduleIsValidUnderPerturbedWeights) {
  const ProblemInstance inst = fig1_instance();
  const Schedule planned =
      SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed)->schedule(inst);
  StochasticInstance stochastic(inst);
  stochastic.apply_relative_noise(0.3);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const ProblemInstance realized = stochastic.realize(seed);
    const Schedule replayed = reexecute(planned, realized);
    const auto validation = replayed.validate(realized);
    EXPECT_TRUE(validation.ok) << "seed " << seed << ": " << validation.message;
  }
}

// On a deterministic (point-mass) stochastic instance, every realisation
// is the mean instance: realized == planned makespan, regret exactly 1.
TEST(Robustness, DeterministicInstanceHasNoSpreadAndUnitRegret) {
  const auto& registry = SchedulerRegistry::instance();
  const StochasticInstance stochastic(fig1_instance());
  ASSERT_TRUE(stochastic.is_deterministic());
  const auto report =
      evaluate_robustness(*registry.make("HEFT", kDefaultSchedulerSeed), stochastic, 4, 42);
  EXPECT_EQ(report.realized.count, 4u);
  EXPECT_EQ(report.realized.min, report.planned_makespan);
  EXPECT_EQ(report.realized.max, report.planned_makespan);
  EXPECT_EQ(report.regret.min, 1.0);
  EXPECT_EQ(report.regret.max, 1.0);
}

// The evaluation is deterministic in its seed and actually spreads under
// noise.
TEST(Robustness, EvaluationIsSeedDeterministic) {
  StochasticInstance stochastic(fig1_instance());
  stochastic.apply_relative_noise(0.3);
  const auto scheduler = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto first = evaluate_robustness(*scheduler, stochastic, 16, 7);
  const auto second = evaluate_robustness(*scheduler, stochastic, 16, 7);
  EXPECT_EQ(first.realized.mean, second.realized.mean);  // bitwise
  EXPECT_EQ(first.realized.stddev, second.realized.stddev);
  EXPECT_EQ(first.regret.mean, second.regret.mean);
  EXPECT_LT(first.realized.min, first.realized.max);

  const auto other = evaluate_robustness(*scheduler, stochastic, 16, 8);
  EXPECT_NE(other.realized.mean, first.realized.mean);
}

}  // namespace
