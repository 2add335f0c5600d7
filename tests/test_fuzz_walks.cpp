#include <gtest/gtest.h>

#include "core/annealer.hpp"
#include "core/perturbation.hpp"
#include "datasets/registry.hpp"
#include "sched/registry.hpp"

/// Fuzz-style robustness suite: long random perturbation walks starting
/// from structurally diverse instances, with every scheduler validated at
/// checkpoints. This is the regime PISA subjects schedulers to — weights
/// driven to extremes, structure randomly rewired — and where placement or
/// tie-breaking bugs surface as validation failures.

namespace saga {
namespace {

class PerturbationWalk : public ::testing::TestWithParam<std::string> {};

TEST_P(PerturbationWalk, SchedulersSurviveWeightExtremes) {
  const auto& dataset = GetParam();
  Rng rng(7);
  auto config = pisa::PerturbationConfig::generic();
  // Wider ranges than Section VI so costs can hit 0 and speeds the floor.
  config.task_cost = {0.0, 5.0};
  config.dependency_cost = {0.0, 5.0};
  config.node_speed = {1e-3, 5.0};
  config.link_strength = {1e-3, 5.0};

  ProblemInstance inst = datasets::DatasetRegistry::instance().make(dataset, 3)->generate(0);
  const auto roster = SchedulerRegistry::instance().names("benchmark", NameOrder::kLexicographic);
  for (int step = 0; step < 120; ++step) {
    inst = pisa::perturb(inst, config, rng).instance;
    if (step % 40 != 39) continue;  // validate at checkpoints
    for (const auto& name : roster) {
      const auto scheduler = SchedulerRegistry::instance().make(name, 3);
      const Schedule s = scheduler->schedule(inst);
      const auto result = s.validate(inst);
      ASSERT_TRUE(result.ok) << name << " on " << dataset << " step " << step << ": "
                             << result.message;
    }
  }
}

TEST_P(PerturbationWalk, OnlinePoliciesSurviveTheSameWalk) {
  const auto& dataset = GetParam();
  Rng rng(11);
  const auto config = pisa::PerturbationConfig::generic();
  ProblemInstance inst = datasets::DatasetRegistry::instance().make(dataset, 5)->generate(1);
  for (int step = 0; step < 80; ++step) {
    inst = pisa::perturb(inst, config, rng).instance;
  }
  for (const char* spec : {"Online?policy=eft", "Online?policy=rr", "Online?policy=fastest",
                           "Online?policy=locality", "Online?policy=random"}) {
    const Schedule s = SchedulerRegistry::instance().make(spec, 5)->schedule(inst);
    ASSERT_TRUE(s.validate(inst).ok) << spec << " on " << dataset;
  }
}

INSTANTIATE_TEST_SUITE_P(DiverseSeeds, PerturbationWalk,
                         ::testing::Values("chains", "blast", "montage", "stats"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(FuzzExtremes, SingleNodeNetworkNeverBreaks) {
  const auto& registry = SchedulerRegistry::instance();
  // Degenerate network: everything must serialise, every scheduler valid.
  ProblemInstance inst;
  Rng rng(2);
  for (int i = 0; i < 6; ++i) inst.graph.add_task(rng.uniform());
  inst.graph.add_dependency(0, 3, 1.0);
  inst.graph.add_dependency(1, 3, 1.0);
  inst.graph.add_dependency(3, 5, 1.0);
  inst.network = Network(1);
  for (const auto& name : registry.names("benchmark", NameOrder::kLexicographic)) {
    const Schedule s = registry.make(name, 1)->schedule(inst);
    EXPECT_TRUE(s.validate(inst).ok) << name;
    // One node: makespan is exactly the total cost (no comm, no overlap).
    EXPECT_NEAR(s.makespan(), inst.graph.total_cost(), 1e-9) << name;
  }
}

TEST(FuzzExtremes, DenseGraphFromSaturatingAddDependency) {
  const auto& registry = SchedulerRegistry::instance();
  // Drive AddDependency until the DAG is maximally dense, then schedule.
  Rng rng(3);
  pisa::PerturbationConfig config;
  for (std::size_t i = 0; i < pisa::kPerturbationOpCount; ++i) config.enabled[i] = false;
  config.set_enabled(pisa::PerturbationOp::kAddDependency, true);

  ProblemInstance inst;
  for (int i = 0; i < 7; ++i) inst.graph.add_task(0.5);
  inst.network = Network(3);
  for (int step = 0; step < 200; ++step) {
    inst = pisa::perturb(inst, config, rng).instance;
  }
  // A 7-task DAG saturates at 21 edges.
  EXPECT_EQ(inst.graph.dependency_count(), 21u);
  for (const auto& name : registry.names("benchmark", NameOrder::kLexicographic)) {
    EXPECT_TRUE(registry.make(name, 1)->schedule(inst).validate(inst).ok) << name;
  }
}

TEST(FuzzExtremes, RemovalsDriveGraphEdgeless) {
  const auto& registry = SchedulerRegistry::instance();
  Rng rng(4);
  pisa::PerturbationConfig config;
  for (std::size_t i = 0; i < pisa::kPerturbationOpCount; ++i) config.enabled[i] = false;
  config.set_enabled(pisa::PerturbationOp::kRemoveDependency, true);

  ProblemInstance inst = pisa::random_chain_instance(9);
  for (std::size_t step = 0; step < 20; ++step) {
    const auto result = pisa::perturb(inst, config, rng);
    if (!result.applied.has_value()) break;  // nothing left to remove
    inst = result.instance;
  }
  EXPECT_EQ(inst.graph.dependency_count(), 0u);
  for (const auto& name : registry.names("benchmark", NameOrder::kLexicographic)) {
    EXPECT_TRUE(registry.make(name, 1)->schedule(inst).validate(inst).ok) << name;
  }
}

}  // namespace
}  // namespace saga
