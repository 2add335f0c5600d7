#include <gtest/gtest.h>

#include <cmath>

#include "datasets/registry.hpp"
#include "sched/registry.hpp"
#include "stochastic/robustness.hpp"
#include "stochastic/stochastic_instance.hpp"

namespace saga::stochastic {
namespace {

TEST(Distribution, DeterministicIsPointMass) {
  const auto d = WeightDistribution::deterministic(3.5);
  EXPECT_TRUE(d.is_deterministic());
  EXPECT_DOUBLE_EQ(d.mean(), 3.5);
  EXPECT_DOUBLE_EQ(d.min(), 3.5);
  EXPECT_DOUBLE_EQ(d.max(), 3.5);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(d.sample(rng), 3.5);
}

TEST(Distribution, UniformMomentsAndBounds) {
  const auto d = WeightDistribution::uniform(2.0, 6.0);
  EXPECT_DOUBLE_EQ(d.mean(), 4.0);
  Rng rng(2);
  double total = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double x = d.sample(rng);
    ASSERT_GE(x, 2.0);
    ASSERT_LT(x, 6.0);
    total += x;
  }
  EXPECT_NEAR(total / 20000, 4.0, 0.05);
}

TEST(Distribution, UniformRejectsInvertedBounds) {
  EXPECT_THROW((void)WeightDistribution::uniform(5.0, 1.0), std::invalid_argument);
}

TEST(Distribution, ClippedGaussianSymmetricCaseKeepsMean) {
  // Symmetric clipping: mean unchanged.
  const auto d = WeightDistribution::clipped_gaussian(1.0, 1.0 / 3.0, 0.0, 2.0);
  EXPECT_NEAR(d.mean(), 1.0, 1e-9);
}

TEST(Distribution, ClippedGaussianAsymmetricMeanIsExact) {
  // Clip hard from below: the analytic mean must match Monte Carlo.
  const auto d = WeightDistribution::clipped_gaussian(1.0, 1.0, 0.8, 5.0);
  Rng rng(3);
  double total = 0.0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) total += d.sample(rng);
  EXPECT_NEAR(total / n, d.mean(), 0.01);
}

TEST(Distribution, ToStringMentionsKind) {
  EXPECT_NE(WeightDistribution::deterministic(1).to_string().find("det"), std::string::npos);
  EXPECT_NE(WeightDistribution::uniform(0, 1).to_string().find("uniform"), std::string::npos);
  EXPECT_NE(WeightDistribution::clipped_gaussian(1, 1, 0, 2).to_string().find("clipgauss"),
            std::string::npos);
}

TEST(StochasticInstance, LiftedInstanceIsDeterministic) {
  const StochasticInstance s(fig1_instance());
  EXPECT_TRUE(s.is_deterministic());
  const auto realized = s.realize(1);
  EXPECT_TRUE(realized.graph.structurally_equal(fig1_instance().graph));
}

TEST(StochasticInstance, RealizationsVaryUnderNoise) {
  StochasticInstance s(fig1_instance());
  s.apply_relative_noise(0.2);
  EXPECT_FALSE(s.is_deterministic());
  const auto a = s.realize(1);
  const auto b = s.realize(2);
  EXPECT_FALSE(a.graph.structurally_equal(b.graph));
  // Topology is invariant.
  EXPECT_EQ(a.graph.dependency_count(), b.graph.dependency_count());
}

TEST(StochasticInstance, RealizationDeterministicInSeed) {
  StochasticInstance s(fig1_instance());
  s.apply_relative_noise(0.3);
  EXPECT_TRUE(s.realize(7).graph.structurally_equal(s.realize(7).graph));
}

TEST(StochasticInstance, MeanInstanceMatchesBaseUnderSymmetricNoise) {
  StochasticInstance s(fig1_instance());
  s.apply_relative_noise(0.1);  // ±3 sigma never reaches 0, so symmetric
  const auto mean = s.mean_instance();
  const auto base = fig1_instance();
  for (TaskId t = 0; t < base.graph.task_count(); ++t) {
    EXPECT_NEAR(mean.graph.cost(t), base.graph.cost(t), 1e-9);
  }
}

TEST(StochasticInstance, SettersValidateTopology) {
  StochasticInstance s(fig1_instance());
  EXPECT_THROW(s.set_dependency_cost(0, 3, WeightDistribution::deterministic(1)),
               std::out_of_range);
  EXPECT_THROW(s.set_link_strength(0, 0, WeightDistribution::deterministic(1)),
               std::out_of_range);
  s.set_task_cost(0, WeightDistribution::uniform(1.0, 2.0));
  EXPECT_FALSE(s.is_deterministic());
}

TEST(StochasticInstance, InfiniteStrengthStaysDeterministicUnderNoise) {
  auto inst =
      datasets::DatasetRegistry::instance().make("blast", 1)->generate(0);  // chameleon: inf links
  StochasticInstance s(inst);
  s.apply_relative_noise(0.5);
  const auto realized = s.realize(3);
  for (NodeId a = 0; a < realized.network.node_count(); ++a) {
    for (NodeId b = a + 1; b < realized.network.node_count(); ++b) {
      EXPECT_TRUE(std::isinf(realized.network.strength(a, b)));
    }
  }
}

TEST(Reexecute, IdenticalRealizationReproducesPlan) {
  const auto inst = fig1_instance();
  const auto planned =
      SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed)->schedule(inst);
  const auto replayed = reexecute(planned, inst);
  EXPECT_DOUBLE_EQ(replayed.makespan(), planned.makespan());
  for (TaskId t = 0; t < inst.graph.task_count(); ++t) {
    EXPECT_EQ(replayed.of_task(t).node, planned.of_task(t).node);
  }
}

TEST(Reexecute, KeepsAssignmentsUnderPerturbedCosts) {
  auto inst = fig1_instance();
  const auto planned =
      SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed)->schedule(inst);
  inst.graph.set_cost(2, 4.4);  // t3 runs twice as long as planned
  const auto realized = reexecute(planned, inst);
  EXPECT_TRUE(realized.validate(inst).ok);
  for (TaskId t = 0; t < inst.graph.task_count(); ++t) {
    EXPECT_EQ(realized.of_task(t).node, planned.of_task(t).node);
  }
  EXPECT_GT(realized.makespan(), planned.makespan());
}

TEST(Robustness, ZeroNoiseHasUnitRegret) {
  const auto& registry = SchedulerRegistry::instance();
  const StochasticInstance s(fig1_instance());
  const auto report = evaluate_robustness(*registry.make("HEFT", kDefaultSchedulerSeed), s, 10, 1);
  EXPECT_DOUBLE_EQ(report.realized.min, report.planned_makespan);
  EXPECT_DOUBLE_EQ(report.realized.max, report.planned_makespan);
  EXPECT_NEAR(report.regret.mean, 1.0, 1e-9);
}

TEST(Robustness, NoiseSpreadsRealizedMakespans) {
  const auto& registry = SchedulerRegistry::instance();
  StochasticInstance s(fig1_instance());
  s.apply_relative_noise(0.3);
  const auto report = evaluate_robustness(*registry.make("HEFT", kDefaultSchedulerSeed), s, 50, 2);
  EXPECT_GT(report.realized.max, report.realized.min);
  EXPECT_EQ(report.realized.count, 50u);
  // Static plans can beat clairvoyant re-planning only by heuristic luck;
  // mean regret should be near or above 1.
  EXPECT_GT(report.regret.mean, 0.8);
}

TEST(Robustness, ReportsCarrySchedulerName) {
  const auto& registry = SchedulerRegistry::instance();
  const StochasticInstance s(fig1_instance());
  EXPECT_EQ(evaluate_robustness(*registry.make("CPoP", kDefaultSchedulerSeed), s, 3, 1).scheduler,
            "CPoP");
}

}  // namespace
}  // namespace saga::stochastic
