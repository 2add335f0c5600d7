#include <gtest/gtest.h>

#include "core/app_specific.hpp"
#include "datasets/workflows/blast.hpp"
#include "sched/registry.hpp"

namespace saga::pisa {
namespace {

TEST(AppSpecificConfig, ScalesRangesToTraceStats) {
  workflows::TraceStats stats;
  stats.min_runtime = 2.0;
  stats.max_runtime = 500.0;
  stats.min_io = 1.0;
  stats.max_io = 300.0;
  stats.min_speed = 0.5;
  stats.max_speed = 1.5;
  const auto config = app_specific_config(stats);
  EXPECT_DOUBLE_EQ(config.task_cost.lo, 2.0);
  EXPECT_DOUBLE_EQ(config.task_cost.hi, 500.0);
  EXPECT_DOUBLE_EQ(config.dependency_cost.lo, 1.0);
  EXPECT_DOUBLE_EQ(config.dependency_cost.hi, 300.0);
  EXPECT_DOUBLE_EQ(config.node_speed.lo, 0.5);
  EXPECT_DOUBLE_EQ(config.node_speed.hi, 1.5);
}

TEST(AppSpecificConfig, DisablesStructuralAndLinkOps) {
  const auto config = app_specific_config(workflows::TraceStats{});
  EXPECT_FALSE(config.is_enabled(PerturbationOp::kAddDependency));
  EXPECT_FALSE(config.is_enabled(PerturbationOp::kRemoveDependency));
  EXPECT_FALSE(config.is_enabled(PerturbationOp::kChangeNetworkEdgeWeight));
  EXPECT_TRUE(config.is_enabled(PerturbationOp::kChangeTaskWeight));
  EXPECT_TRUE(config.is_enabled(PerturbationOp::kChangeNetworkNodeWeight));
  EXPECT_TRUE(config.is_enabled(PerturbationOp::kChangeDependencyWeight));
}

TEST(AppSpecificOptions, InitialInstancesHaveRequestedCcr) {
  const auto options = app_specific_options("blast", 2.0, 42);
  ASSERT_TRUE(static_cast<bool>(options.make_initial));
  for (std::uint64_t run = 0; run < 3; ++run) {
    const auto inst = options.make_initial(run);
    EXPECT_NEAR(inst.ccr(), 2.0, 1e-9);
    EXPECT_TRUE(inst.network.homogeneous_strengths());
  }
}

TEST(AppSpecificOptions, UnknownWorkflowThrows) {
  EXPECT_THROW((void)app_specific_options("nope", 1.0, 1), std::invalid_argument);
}

TEST(AppSpecificPisa, PreservesWorkflowStructureDuringSearch) {
  // Run a short app-specific PISA and check the witness instance still has
  // the srasearch shape (structure ops are disabled).
  auto options = app_specific_options("srasearch", 1.0, 7);
  options.restarts = 1;
  options.params.max_iterations = 60;
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto cpop = SchedulerRegistry::instance().make("CPoP", kDefaultSchedulerSeed);
  const auto result = run_pisa(*heft, *cpop, options, 7);
  const auto& g = result.best_instance.graph;
  ASSERT_EQ(g.sources().size(), 1u);
  ASSERT_EQ(g.sinks().size(), 1u);
  EXPECT_EQ(g.task_count() % 4, 0u);  // 4n + 4
  // Link homogeneity (pinned by the CCR) survives the search.
  EXPECT_TRUE(result.best_instance.network.homogeneous_strengths());
}

TEST(AppSpecificPisa, WeightsStayInsideTraceEnvelope) {
  auto options = app_specific_options("blast", 0.5, 9);
  options.restarts = 1;
  options.params.max_iterations = 120;
  const auto minmin = SchedulerRegistry::instance().make("MinMin", kDefaultSchedulerSeed);
  const auto cpop = SchedulerRegistry::instance().make("CPoP", kDefaultSchedulerSeed);
  const auto result = run_pisa(*minmin, *cpop, options, 9);
  const auto& stats = workflows::blast_stats();
  const auto& inst = result.best_instance;
  for (TaskId t = 0; t < inst.graph.task_count(); ++t) {
    EXPECT_GE(inst.graph.cost(t), stats.min_runtime);
    EXPECT_LE(inst.graph.cost(t), stats.max_runtime);
  }
  for (NodeId v = 0; v < inst.network.node_count(); ++v) {
    EXPECT_GE(inst.network.speed(v), stats.min_speed);
    EXPECT_LE(inst.network.speed(v), stats.max_speed);
  }
}

}  // namespace
}  // namespace saga::pisa
