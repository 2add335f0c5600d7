#include <gtest/gtest.h>

#include <cmath>

#include "analysis/benchmarking.hpp"
#include "datasets/registry.hpp"
#include "datasets/workflows/workflow.hpp"
#include "sched/registry.hpp"

/// Wide property sweeps across every dataset family — the invariants here
/// are cheap per instance, so the suite covers all 16 generators rather
/// than the structural subset used by the per-scheduler suites.

namespace saga {
namespace {

class DatasetSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(DatasetSweep, InstancesAreWellFormed) {
  for (std::size_t i = 0; i < 5; ++i) {
    const auto inst = datasets::DatasetRegistry::instance().make(GetParam(), 21)->generate(i);
    // Non-empty, acyclic, all weights valid.
    EXPECT_GT(inst.graph.task_count(), 0u);
    EXPECT_GT(inst.network.node_count(), 0u);
    EXPECT_EQ(inst.graph.topological_order().size(), inst.graph.task_count());
    for (TaskId t = 0; t < inst.graph.task_count(); ++t) {
      EXPECT_GE(inst.graph.cost(t), 0.0);
      EXPECT_FALSE(inst.graph.name(t).empty());
    }
    for (const auto& [from, to] : inst.graph.dependencies()) {
      EXPECT_GE(inst.graph.dependency_cost(from, to), 0.0);
    }
    for (NodeId v = 0; v < inst.network.node_count(); ++v) {
      EXPECT_GT(inst.network.speed(v), 0.0);
    }
  }
}

TEST_P(DatasetSweep, GenerationIsDeterministicPerIndex) {
  const auto a = datasets::DatasetRegistry::instance().make(GetParam(), 33)->generate(2);
  const auto b = datasets::DatasetRegistry::instance().make(GetParam(), 33)->generate(2);
  EXPECT_TRUE(a.graph.structurally_equal(b.graph));
  ASSERT_EQ(a.network.node_count(), b.network.node_count());
  for (NodeId v = 0; v < a.network.node_count(); ++v) {
    EXPECT_EQ(a.network.speed(v), b.network.speed(v));
  }
}

TEST_P(DatasetSweep, DistinctIndicesGiveDistinctInstances) {
  const auto a = datasets::DatasetRegistry::instance().make(GetParam(), 33)->generate(0);
  const auto b = datasets::DatasetRegistry::instance().make(GetParam(), 33)->generate(1);
  // Weights are continuous draws; identical instances would require dozens
  // of exact collisions.
  EXPECT_FALSE(a.graph.structurally_equal(b.graph));
}

TEST_P(DatasetSweep, HeftBeatsOrMatchesSerialBaseline) {
  // HEFT considers the serial placement among its choices implicitly; it
  // should rarely lose to FastestNode on in-distribution instances. We
  // assert the non-strict aggregate: mean HEFT makespan <= mean serial.
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto serial = SchedulerRegistry::instance().make("FastestNode", kDefaultSchedulerSeed);
  double heft_total = 0.0, serial_total = 0.0;
  for (std::size_t i = 0; i < 5; ++i) {
    const auto inst = datasets::DatasetRegistry::instance().make(GetParam(), 44)->generate(i);
    heft_total += heft->schedule(inst).makespan();
    serial_total += serial->schedule(inst).makespan();
  }
  EXPECT_LE(heft_total, serial_total * 1.001);
}

TEST_P(DatasetSweep, DuplexSandwichedBetweenComponents) {
  const auto duplex = SchedulerRegistry::instance().make("Duplex", kDefaultSchedulerSeed);
  const auto minmin = SchedulerRegistry::instance().make("MinMin", kDefaultSchedulerSeed);
  const auto maxmin = SchedulerRegistry::instance().make("MaxMin", kDefaultSchedulerSeed);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto inst = datasets::DatasetRegistry::instance().make(GetParam(), 55)->generate(i);
    const double d = duplex->schedule(inst).makespan();
    EXPECT_DOUBLE_EQ(
        d, std::min(minmin->schedule(inst).makespan(), maxmin->schedule(inst).makespan()));
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetSweep,
                         ::testing::ValuesIn(datasets::DatasetRegistry::instance().names("table2")),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

class WorkflowCcrSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkflowCcrSweep, CcrPinningIsExactForEveryWorkflow) {
  for (double ccr : {0.2, 1.0, 5.0}) {
    auto inst = datasets::DatasetRegistry::instance().make(GetParam(), 13)->generate(0);
    workflows::set_homogeneous_ccr(inst, ccr);
    EXPECT_NEAR(inst.ccr(), ccr, 1e-9) << GetParam() << " at CCR " << ccr;
  }
}

TEST_P(WorkflowCcrSweep, HigherCcrNeverSpeedsUpSerialBaseline) {
  // FastestNode pays no communication, so its makespan is CCR-invariant.
  auto low = datasets::DatasetRegistry::instance().make(GetParam(), 14)->generate(0);
  auto high = datasets::DatasetRegistry::instance().make(GetParam(), 14)->generate(0);
  workflows::set_homogeneous_ccr(low, 0.2);
  workflows::set_homogeneous_ccr(high, 5.0);
  const auto serial = SchedulerRegistry::instance().make("FastestNode", kDefaultSchedulerSeed);
  EXPECT_DOUBLE_EQ(serial->schedule(low).makespan(), serial->schedule(high).makespan());
}

TEST_P(WorkflowCcrSweep, HeftDegradesTowardSerialAsCcrGrows) {
  // As communication dominates, parallelisation pays less: HEFT's
  // advantage over FastestNode shrinks (ratio moves toward 1).
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto serial = SchedulerRegistry::instance().make("FastestNode", kDefaultSchedulerSeed);
  double low_ratio = 0.0, high_ratio = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    auto low = datasets::DatasetRegistry::instance().make(GetParam(), 15)->generate(i);
    auto high = datasets::DatasetRegistry::instance().make(GetParam(), 15)->generate(i);
    workflows::set_homogeneous_ccr(low, 0.2);
    workflows::set_homogeneous_ccr(high, 5.0);
    low_ratio += heft->schedule(low).makespan() / serial->schedule(low).makespan();
    high_ratio += heft->schedule(high).makespan() / serial->schedule(high).makespan();
  }
  EXPECT_LE(low_ratio, high_ratio + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllWorkflows, WorkflowCcrSweep,
                         ::testing::ValuesIn(
                             datasets::DatasetRegistry::instance().names("workflow")),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace saga
