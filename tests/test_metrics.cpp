#include <gtest/gtest.h>

#include <cmath>

#include "core/annealer.hpp"
#include "metrics/metrics.hpp"
#include "sched/registry.hpp"

namespace saga::metrics {
namespace {

ProblemInstance two_node_instance() {
  ProblemInstance inst;
  const TaskId a = inst.graph.add_task("a", 2.0);
  const TaskId b = inst.graph.add_task("b", 2.0);
  inst.graph.add_dependency(a, b, 4.0);
  inst.network = Network(2);
  inst.network.set_speed(1, 2.0);
  return inst;
}

TEST(Energy, SerialScheduleUsesOneNode) {
  const auto inst = two_node_instance();
  Schedule s;
  s.add({0, 0, 0.0, 2.0});
  s.add({1, 0, 2.0, 4.0});
  // Node 0: idle 0.1 * 4 + busy 1.0 * speed 1 * 4 = 4.4; no comm energy.
  EXPECT_NEAR(total_energy(inst, s), 0.1 * 4.0 + 1.0 * 1.0 * 4.0, 1e-12);
}

TEST(Energy, CrossNodeDependencyPaysCommEnergy) {
  const auto inst = two_node_instance();
  Schedule s;
  s.add({0, 0, 0.0, 2.0});
  s.add({1, 1, 6.0, 7.0});  // data arrives at 2 + 4/1 = 6; exec 2/2 = 1
  const double makespan = 7.0;
  const double expected = (0.1 * makespan + 1.0 * 1.0 * 2.0) +   // node 0
                          (0.1 * makespan + 1.0 * 2.0 * 1.0) +   // node 1 (speed 2)
                          0.05 * 4.0;                            // transfer
  EXPECT_NEAR(total_energy(inst, s), expected, 1e-12);
}

TEST(Energy, UnusedNodesArePoweredOff) {
  ProblemInstance inst;
  inst.graph.add_task("only", 1.0);
  inst.network = Network(10);
  Schedule s;
  s.add({0, 0, 0.0, 1.0});
  EXPECT_NEAR(total_energy(inst, s), 0.1 * 1.0 + 1.0 * 1.0 * 1.0, 1e-12);
}

TEST(Throughput, BottleneckNodeDetermsRate) {
  const auto inst = two_node_instance();
  Schedule s;
  s.add({0, 0, 0.0, 2.0});
  s.add({1, 1, 6.0, 7.0});
  // Busiest node is node 0 with 2 time units of work -> throughput 0.5.
  EXPECT_DOUBLE_EQ(pipeline_throughput(inst, s), 0.5);
}

TEST(Throughput, EmptyScheduleIsInfinite) {
  ProblemInstance inst;
  inst.network = Network(2);
  EXPECT_TRUE(std::isinf(pipeline_throughput(inst, Schedule{})));
}

TEST(Cost, ChargesSpeedWeightedOccupancy) {
  const auto inst = two_node_instance();
  Schedule s;
  s.add({0, 0, 0.0, 2.0});
  s.add({1, 1, 6.0, 7.0});
  // Node 0 rented until 2 at rate 1; node 1 rented until 7 at rate 2.
  EXPECT_DOUBLE_EQ(rental_cost(inst, s), 2.0 + 14.0);
}

TEST(Evaluate, MakespanMatchesSchedule) {
  const auto inst = fig1_instance();
  const auto s = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed)->schedule(inst);
  EXPECT_DOUBLE_EQ(evaluate(Metric::kMakespan, inst, s), s.makespan());
}

TEST(Evaluate, InverseThroughputIsBottleneckTime) {
  const auto inst = two_node_instance();
  Schedule s;
  s.add({0, 0, 0.0, 2.0});
  s.add({1, 1, 6.0, 7.0});
  EXPECT_DOUBLE_EQ(evaluate(Metric::kInverseThroughput, inst, s), 2.0);
}

TEST(Evaluate, MetricNames) {
  EXPECT_EQ(to_string(Metric::kMakespan), "makespan");
  EXPECT_EQ(to_string(Metric::kEnergy), "energy");
  EXPECT_EQ(to_string(Metric::kInverseThroughput), "1/throughput");
  EXPECT_EQ(to_string(Metric::kCost), "cost");
}

TEST(MetricRatio, MakespanMetricMatchesPaperObjective) {
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto cpop = SchedulerRegistry::instance().make("CPoP", kDefaultSchedulerSeed);
  const auto inst = pisa::random_chain_instance(5);
  EXPECT_DOUBLE_EQ(metric_ratio(Metric::kMakespan, *heft, *cpop, inst),
                   pisa::makespan_ratio(*heft, *cpop, inst));
}

TEST(MetricRatio, FastestNodeIsEnergyFrugal) {
  // Serialising on one node avoids comm energy and extra idle power, so
  // HEFT's energy ratio against FastestNode is >= 1 whenever HEFT uses
  // more than one node.
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto fn = SchedulerRegistry::instance().make("FastestNode", kDefaultSchedulerSeed);
  int heft_never_cheaper = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto inst = pisa::random_chain_instance(seed);
    if (metric_ratio(Metric::kEnergy, *heft, *fn, inst) >= 1.0 - 1e-9) ++heft_never_cheaper;
  }
  EXPECT_GE(heft_never_cheaper, 18);
}

TEST(MetricPisa, AnnealerMaximisesEnergyRatioObjective) {
  // The generalised objective plugs into anneal_objective: hunting for
  // instances where HEFT burns the most energy relative to FastestNode.
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto fn = SchedulerRegistry::instance().make("FastestNode", kDefaultSchedulerSeed);
  const auto objective = [&](const ProblemInstance& inst) {
    return metric_ratio(Metric::kEnergy, *heft, *fn, inst);
  };
  pisa::AnnealingParams params;
  params.max_iterations = 150;
  const auto initial = pisa::random_chain_instance(3);
  const auto result = pisa::anneal_objective(objective, initial,
                                             pisa::PerturbationConfig::generic(), params, 3);
  EXPECT_GE(result.best_ratio, result.initial_ratio);
  EXPECT_GT(result.best_ratio, 1.0);
}

}  // namespace
}  // namespace saga::metrics
