#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/annealer.hpp"
#include "graph/serialization.hpp"
#include "sched/registry.hpp"
#include "schedulers/brute_force.hpp"
#include "schedulers/exact_search.hpp"
#include "schedulers/smt_binary_search.hpp"

/// The exact solvers double as optimality oracles: on small instances the
/// heuristics can never beat BruteForce, and SMT must be within (1+eps).

namespace saga {
namespace {

TEST(ExactSearch, FindsOptimumOnFig1) {
  const auto inst = fig1_instance();
  const auto result = exact_search(inst);
  ASSERT_TRUE(result.schedule.has_value());
  EXPECT_TRUE(result.schedule->validate(inst).ok);
  // FastestNode achieves 5.9/1.5; nothing beats full serialisation here.
  EXPECT_NEAR(result.schedule->makespan(), 5.9 / 1.5, 1e-9);
}

TEST(ExactSearch, DecisionModeFindsFeasibleSchedule) {
  const auto inst = fig1_instance();
  ExactSearchOptions options;
  options.bound = 4.5;
  options.first_below_bound = true;
  const auto result = exact_search(inst, options);
  ASSERT_TRUE(result.schedule.has_value());
  EXPECT_LT(result.schedule->makespan(), 4.5);
}

TEST(ExactSearch, DecisionModeRejectsInfeasibleBound) {
  const auto inst = fig1_instance();
  ExactSearchOptions options;
  options.bound = 1.0;  // impossible: critical path alone is longer
  options.first_below_bound = true;
  EXPECT_FALSE(exact_search(inst, options).schedule.has_value());
}

TEST(ExactSearch, StateBudgetThrows) {
  const auto inst = fig1_instance();
  ExactSearchOptions options;
  options.max_states = 3;
  EXPECT_THROW((void)exact_search(inst, options), std::runtime_error);
}

TEST(MakespanLowerBound, NeverExceedsOptimum) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto inst = pisa::random_chain_instance(seed);
    const double lb = makespan_lower_bound(inst);
    const double opt = BruteForceScheduler{}.schedule(inst).makespan();
    EXPECT_LE(lb, opt + 1e-9) << "seed " << seed;
  }
}

TEST(MakespanLowerBound, TightOnChainWithFreeComm) {
  // All tasks serial on the fastest node with zero data: LB == OPT.
  ProblemInstance inst;
  TaskId prev = inst.graph.add_task(2.0);
  for (int i = 0; i < 3; ++i) {
    const TaskId cur = inst.graph.add_task(1.0);
    inst.graph.add_dependency(prev, cur, 0.0);
    prev = cur;
  }
  inst.network = Network(2);
  inst.network.set_speed(1, 2.0);
  EXPECT_DOUBLE_EQ(makespan_lower_bound(inst), 2.5);
  EXPECT_DOUBLE_EQ(BruteForceScheduler{}.schedule(inst).makespan(), 2.5);
}

class HeuristicVsOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(HeuristicVsOracle, NeverBeatsBruteForce) {
  const auto heuristic = SchedulerRegistry::instance().make(GetParam(), 3);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto inst = pisa::random_chain_instance(seed);
    const double h = heuristic->schedule(inst).makespan();
    const double opt = BruteForceScheduler{}.schedule(inst).makespan();
    EXPECT_GE(h, opt - 1e-9) << GetParam() << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllHeuristics, HeuristicVsOracle,
                         ::testing::ValuesIn(SchedulerRegistry::instance().names(
                             "benchmark", NameOrder::kLexicographic)),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(SmtBinarySearch, WithinEpsilonOfOptimum) {
  const double eps = 0.01;
  SmtBinarySearchScheduler smt(eps);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto inst = pisa::random_chain_instance(seed);
    const double approx = smt.schedule(inst).makespan();
    const double opt = BruteForceScheduler{}.schedule(inst).makespan();
    EXPECT_GE(approx, opt - 1e-9);
    EXPECT_LE(approx, (1.0 + eps) * opt + 1e-9) << "seed " << seed;
  }
}

TEST(SmtBinarySearch, ProducesValidSchedules) {
  SmtBinarySearchScheduler smt;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto inst = pisa::random_chain_instance(seed);
    EXPECT_TRUE(smt.schedule(inst).validate(inst).ok);
  }
}

TEST(SmtBinarySearch, HandlesZeroMakespanGraph) {
  ProblemInstance inst;
  inst.graph.add_task("free", 0.0);
  inst.network = Network(2);
  EXPECT_DOUBLE_EQ(SmtBinarySearchScheduler{}.schedule(inst).makespan(), 0.0);
}

TEST(SmtBinarySearch, TerminatesWhenEpsilonIsBelowOneUlp) {
  // `saga generate 'chains?chains=2&length=3&nodes=3' 5` with its task and
  // dependency weights scaled by 1e6 (printed to six significant digits).
  // Makespans near 1e6 have a ULP (~1e-10) above the absolute 1e-12 gap, so
  // with epsilon = 1e-300 the bisection ends with lo and hi adjacent
  // doubles; here the midpoint rounds onto lo, and the search must stop
  // rather than re-test the same bound forever.
  const auto inst = instance_from_string(
      "saga-instance v1\n"
      "tasks 6\n"
      "task 0 t0 624060\ntask 1 t1 421238\ntask 2 t2 1018660\n"
      "task 3 t3 1211830\ntask 4 t4 491325\ntask 5 t5 831757\n"
      "deps 4\n"
      "dep 0 1 1055160\ndep 1 2 762945\ndep 3 4 231401\ndep 4 5 1481650\n"
      "nodes 3\n"
      "node 0 1.4803691041891889\nnode 1 1.3289586702139429\nnode 2 0.79710958067737825\n"
      "links 3\n"
      "link 0 1 1.7916502955030877\nlink 0 2 0.83395858228931874\n"
      "link 1 2 1.450278837743209\n");
  const auto& registry = SchedulerRegistry::instance();
  const Schedule tight = registry.make("SMT?epsilon=1e-300", 1)->schedule(inst);
  const Schedule loose = registry.make("SMT?epsilon=1e-9", 1)->schedule(inst);
  EXPECT_TRUE(tight.validate(inst).ok);
  EXPECT_LE(tight.makespan(), loose.makespan());
}

TEST(BruteForce, StrictlyBeatsMinMinOnAntagonisticInstance) {
  const auto& registry = SchedulerRegistry::instance();
  // Independent tasks {4, 2} on speeds {2, 1}. MinMin grabs the small task
  // for the fast node first and ends at 3; the optimum crosses the
  // assignment (4 on fast, 2 on slow) for makespan 2.
  ProblemInstance inst;
  inst.graph.add_task("big", 4.0);
  inst.graph.add_task("small", 2.0);
  inst.network = Network(2);
  inst.network.set_speed(0, 2.0);
  const double opt = BruteForceScheduler{}.schedule(inst).makespan();
  const double minmin = registry.make("MinMin", kDefaultSchedulerSeed)->schedule(inst).makespan();
  EXPECT_DOUBLE_EQ(opt, 2.0);
  EXPECT_DOUBLE_EQ(minmin, 3.0);
}

}  // namespace
}  // namespace saga
