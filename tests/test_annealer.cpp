#include <gtest/gtest.h>

#include <cmath>

#include "core/annealer.hpp"
#include "core/constraints.hpp"
#include "sched/registry.hpp"

namespace saga::pisa {
namespace {

TEST(MakespanRatio, OneOnIdenticalSchedulers) {
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto inst = random_chain_instance(1);
  EXPECT_DOUBLE_EQ(makespan_ratio(*heft, *heft, inst), 1.0);
}

TEST(MakespanRatio, ZeroOverZeroIsOne) {
  ProblemInstance inst;
  inst.graph.add_task("free", 0.0);
  inst.network = Network(2);
  const auto a = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto b = SchedulerRegistry::instance().make("MCT", kDefaultSchedulerSeed);
  EXPECT_DOUBLE_EQ(makespan_ratio(*a, *b, inst), 1.0);
}

TEST(RandomChainInstance, MatchesPaperSectionVI) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const auto inst = random_chain_instance(seed);
    EXPECT_GE(inst.network.node_count(), 3u);
    EXPECT_LE(inst.network.node_count(), 5u);
    EXPECT_GE(inst.graph.task_count(), 3u);
    EXPECT_LE(inst.graph.task_count(), 5u);
    // Chain: every task has at most one predecessor/successor.
    for (TaskId t = 0; t < inst.graph.task_count(); ++t) {
      EXPECT_LE(inst.graph.successors(t).size(), 1u);
      EXPECT_LE(inst.graph.predecessors(t).size(), 1u);
      EXPECT_LE(inst.graph.cost(t), 1.0);
    }
    EXPECT_EQ(inst.graph.dependency_count(), inst.graph.task_count() - 1);
    for (NodeId v = 0; v < inst.network.node_count(); ++v) {
      EXPECT_LE(inst.network.speed(v), 1.0);
      EXPECT_GT(inst.network.speed(v), 0.0);
    }
  }
}

TEST(Anneal, BestRatioNeverBelowInitial) {
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto cpop = SchedulerRegistry::instance().make("CPoP", kDefaultSchedulerSeed);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto initial = random_chain_instance(seed);
    AnnealingParams params;
    params.max_iterations = 200;
    const auto result =
        anneal(*heft, *cpop, initial, PerturbationConfig::generic(), params, seed);
    EXPECT_GE(result.best_ratio, result.initial_ratio);
  }
}

TEST(Anneal, DeterministicForSeed) {
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto fn = SchedulerRegistry::instance().make("FastestNode", kDefaultSchedulerSeed);
  const auto initial = random_chain_instance(3);
  AnnealingParams params;
  params.max_iterations = 150;
  const auto a = anneal(*heft, *fn, initial, PerturbationConfig::generic(), params, 77);
  const auto b = anneal(*heft, *fn, initial, PerturbationConfig::generic(), params, 77);
  EXPECT_DOUBLE_EQ(a.best_ratio, b.best_ratio);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_TRUE(a.best_instance.graph.structurally_equal(b.best_instance.graph));
}

TEST(Anneal, StopsAtIterationCap) {
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto cpop = SchedulerRegistry::instance().make("CPoP", kDefaultSchedulerSeed);
  AnnealingParams params;
  params.max_iterations = 25;
  const auto result = anneal(*heft, *cpop, random_chain_instance(1),
                             PerturbationConfig::generic(), params, 1);
  EXPECT_EQ(result.iterations, 25u);
}

TEST(Anneal, StopsWhenTemperatureFloorsFirst) {
  // Tmax 10 -> Tmin 0.1 at alpha 0.99 takes ceil(ln(0.01)/ln(0.99)) = 459
  // steps; with Imax 1000 the temperature floor binds.
  const auto mct = SchedulerRegistry::instance().make("MCT", kDefaultSchedulerSeed);
  const auto olb = SchedulerRegistry::instance().make("OLB", kDefaultSchedulerSeed);
  AnnealingParams params;  // paper defaults
  const auto result = anneal(*mct, *olb, random_chain_instance(2),
                             PerturbationConfig::generic(), params, 2);
  EXPECT_LT(result.iterations, 1000u);
  EXPECT_NEAR(static_cast<double>(result.iterations), 459.0, 2.0);
}

TEST(Anneal, MetropolisRuleAlsoImproves) {
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto fn = SchedulerRegistry::instance().make("FastestNode", kDefaultSchedulerSeed);
  AnnealingParams params;
  params.acceptance = AnnealingParams::AcceptanceRule::kMetropolis;
  const auto result = anneal(*heft, *fn, random_chain_instance(4),
                             PerturbationConfig::generic(), params, 4);
  EXPECT_GE(result.best_ratio, result.initial_ratio);
}

TEST(RunPisa, FindsInstanceWhereHeftLosesToFastestNode) {
  // The paper's headline observation: PISA finds instances where HEFT
  // over-parallelises and loses to serialising everything on one node.
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto fn = SchedulerRegistry::instance().make("FastestNode", kDefaultSchedulerSeed);
  PisaOptions options;
  options.restarts = 3;
  const auto result = run_pisa(*heft, *fn, options, 99);
  EXPECT_GT(result.best_ratio, 1.05);
  // The witness instance must actually reproduce the ratio.
  EXPECT_NEAR(makespan_ratio(*heft, *fn, result.best_instance), result.best_ratio, 1e-9);
}

TEST(RunPisa, HonoursHomogeneityConstraints) {
  // ETF requires homogeneous speeds; FCP additionally homogeneous links.
  // Any instance PISA produces for this pair must keep both homogeneous.
  const auto etf = SchedulerRegistry::instance().make("ETF", kDefaultSchedulerSeed);
  const auto fcp = SchedulerRegistry::instance().make("FCP", kDefaultSchedulerSeed);
  PisaOptions options;
  options.restarts = 2;
  options.params.max_iterations = 150;
  const auto result = run_pisa(*etf, *fcp, options, 7);
  EXPECT_TRUE(result.best_instance.network.homogeneous_speeds());
  EXPECT_TRUE(result.best_instance.network.homogeneous_strengths());
  for (NodeId v = 0; v < result.best_instance.network.node_count(); ++v) {
    EXPECT_DOUBLE_EQ(result.best_instance.network.speed(v), 1.0);
  }
}

TEST(RunPisa, CustomInitialFactoryIsUsed) {
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto cpop = SchedulerRegistry::instance().make("CPoP", kDefaultSchedulerSeed);
  PisaOptions options;
  options.restarts = 1;
  options.params.max_iterations = 10;
  // Freeze structure so the witness keeps the custom shape.
  options.config.set_enabled(PerturbationOp::kAddDependency, false);
  options.config.set_enabled(PerturbationOp::kRemoveDependency, false);
  options.make_initial = [](std::uint64_t) {
    ProblemInstance inst;
    for (int i = 0; i < 7; ++i) inst.graph.add_task(0.5);
    inst.network = Network(3);
    return inst;
  };
  const auto result = run_pisa(*heft, *cpop, options, 5);
  EXPECT_EQ(result.best_instance.graph.task_count(), 7u);
  EXPECT_EQ(result.best_instance.graph.dependency_count(), 0u);
}

TEST(Constraints, CombineIsUnion) {
  const NetworkRequirements a{.homogeneous_node_speeds = true,
                              .homogeneous_link_strengths = false};
  const NetworkRequirements b{.homogeneous_node_speeds = false,
                              .homogeneous_link_strengths = true};
  const auto c = combine(a, b);
  EXPECT_TRUE(c.homogeneous_node_speeds);
  EXPECT_TRUE(c.homogeneous_link_strengths);
  const auto none = combine({}, {});
  EXPECT_FALSE(none.homogeneous_node_speeds);
  EXPECT_FALSE(none.homogeneous_link_strengths);
}

TEST(Constraints, ApplyRequirementsDisablesOps) {
  PerturbationConfig config;
  apply_requirements(config, {.homogeneous_node_speeds = true,
                              .homogeneous_link_strengths = true});
  EXPECT_FALSE(config.is_enabled(PerturbationOp::kChangeNetworkNodeWeight));
  EXPECT_FALSE(config.is_enabled(PerturbationOp::kChangeNetworkEdgeWeight));
  EXPECT_TRUE(config.is_enabled(PerturbationOp::kChangeTaskWeight));
}

TEST(Constraints, NormalizeSetsUnitWeights) {
  auto inst = random_chain_instance(11);
  normalize_instance(inst, {.homogeneous_node_speeds = true,
                            .homogeneous_link_strengths = true});
  for (NodeId v = 0; v < inst.network.node_count(); ++v) {
    EXPECT_DOUBLE_EQ(inst.network.speed(v), 1.0);
  }
  EXPECT_TRUE(inst.network.homogeneous_strengths());
}

TEST(Constraints, NormalizeNoOpWithoutRequirements) {
  const auto before = random_chain_instance(12);
  auto after = before;
  normalize_instance(after, {});
  for (NodeId v = 0; v < before.network.node_count(); ++v) {
    EXPECT_DOUBLE_EQ(after.network.speed(v), before.network.speed(v));
  }
}


TEST(Anneal, TraceRecordsMonotoneBestAndCoolingTemperatures) {
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto fn = SchedulerRegistry::instance().make("FastestNode", kDefaultSchedulerSeed);
  AnnealingParams params;
  params.max_iterations = 120;
  params.record_trace = true;
  const auto result = anneal(*heft, *fn, random_chain_instance(6),
                             PerturbationConfig::generic(), params, 6);
  ASSERT_EQ(result.trace.size(), result.iterations);
  for (std::size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_GE(result.trace[i].best_ratio, result.trace[i - 1].best_ratio);
    EXPECT_LT(result.trace[i].temperature, result.trace[i - 1].temperature);
    EXPECT_NEAR(result.trace[i].temperature, result.trace[i - 1].temperature * 0.99, 1e-12);
  }
  EXPECT_DOUBLE_EQ(result.trace.back().best_ratio, result.best_ratio);
  EXPECT_DOUBLE_EQ(result.trace.front().temperature, 10.0);
}

TEST(Anneal, TraceEmptyByDefault) {
  const auto mct = SchedulerRegistry::instance().make("MCT", kDefaultSchedulerSeed);
  const auto olb = SchedulerRegistry::instance().make("OLB", kDefaultSchedulerSeed);
  AnnealingParams params;
  params.max_iterations = 30;
  const auto result = anneal(*mct, *olb, random_chain_instance(7),
                             PerturbationConfig::generic(), params, 7);
  EXPECT_TRUE(result.trace.empty());
}

TEST(Anneal, CurrentRatioNeverExceedsBestInTrace) {
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto cpop = SchedulerRegistry::instance().make("CPoP", kDefaultSchedulerSeed);
  AnnealingParams params;
  params.max_iterations = 200;
  params.record_trace = true;
  const auto result = anneal(*heft, *cpop, random_chain_instance(8),
                             PerturbationConfig::generic(), params, 8);
  for (const auto& point : result.trace) {
    EXPECT_LE(point.current_ratio, point.best_ratio + 1e-12);
  }
}

}  // namespace
}  // namespace saga::pisa
