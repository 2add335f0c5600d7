#include <gtest/gtest.h>

#include <vector>

#include "common/stats.hpp"
#include "datasets/families.hpp"
#include "sched/registry.hpp"

namespace saga {
namespace {

TEST(HeftAdversarialFamily, StructureMatchesFig7) {
  const auto inst = families::heft_adversarial_instance(1);
  const auto& g = inst.graph;
  ASSERT_EQ(g.task_count(), 4u);
  EXPECT_EQ(g.name(0), "A");
  EXPECT_EQ(g.name(3), "D");
  EXPECT_DOUBLE_EQ(g.cost(0), 1.0);
  EXPECT_DOUBLE_EQ(g.cost(3), 1.0);
  EXPECT_TRUE(g.has_dependency(0, 1));
  EXPECT_TRUE(g.has_dependency(0, 2));
  EXPECT_TRUE(g.has_dependency(1, 3));
  EXPECT_TRUE(g.has_dependency(2, 3));
  EXPECT_DOUBLE_EQ(g.dependency_cost(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(g.dependency_cost(1, 3), 1.0);
  EXPECT_DOUBLE_EQ(g.dependency_cost(2, 3), 1.0);
}

TEST(HeftAdversarialFamily, NetworkIsHomogeneous) {
  const auto inst = families::heft_adversarial_instance(2);
  EXPECT_TRUE(inst.network.homogeneous_speeds());
  EXPECT_TRUE(inst.network.homogeneous_strengths());
}

TEST(HeftAdversarialFamily, HeftLosesToCpopOnAverage) {
  // The paper's Fig. 7: HEFT's makespan distribution sits well above
  // CPoP's on this family.
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto cpop = SchedulerRegistry::instance().make("CPoP", kDefaultSchedulerSeed);
  std::vector<double> heft_ms, cpop_ms;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const auto inst = families::heft_adversarial_instance(seed);
    heft_ms.push_back(heft->schedule(inst).makespan());
    cpop_ms.push_back(cpop->schedule(inst).makespan());
  }
  EXPECT_GT(mean(heft_ms), mean(cpop_ms));
}

TEST(CpopAdversarialFamily, StructureMatchesFig8) {
  const auto inst = families::cpop_adversarial_instance(1);
  const auto& g = inst.graph;
  ASSERT_EQ(g.task_count(), 11u);  // A + B..J (9) + K
  EXPECT_EQ(g.sources(), std::vector<TaskId>{0});
  EXPECT_EQ(g.sinks(), std::vector<TaskId>{10});
  for (TaskId t = 1; t <= 9; ++t) {
    EXPECT_TRUE(g.has_dependency(0, t));
    EXPECT_TRUE(g.has_dependency(t, 10));
  }
}

TEST(CpopAdversarialFamily, NetworkHasFastNodeWithWeakLink) {
  const auto inst = families::cpop_adversarial_instance(3);
  ASSERT_EQ(inst.network.node_count(), 4u);
  EXPECT_DOUBLE_EQ(inst.network.speed(0), 3.0);
  EXPECT_EQ(inst.network.fastest_node(), 0u);
  // The link from node 0 to the second-fastest node is the weakest of
  // node 0's links (by construction: ~N(1,1/3) vs ~N(10,5/3)).
  NodeId second = 1;
  for (NodeId v = 2; v < 4; ++v) {
    if (inst.network.speed(v) > inst.network.speed(second)) second = v;
  }
  for (NodeId v = 1; v < 4; ++v) {
    if (v == second) continue;
    EXPECT_LT(inst.network.strength(0, second), inst.network.strength(0, v));
  }
}

TEST(CpopAdversarialFamily, CpopLosesToHeftOnAverage) {
  // The paper's Fig. 8: CPoP's makespan distribution sits well above
  // HEFT's on this family.
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto cpop = SchedulerRegistry::instance().make("CPoP", kDefaultSchedulerSeed);
  std::vector<double> heft_ms, cpop_ms;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const auto inst = families::cpop_adversarial_instance(seed);
    heft_ms.push_back(heft->schedule(inst).makespan());
    cpop_ms.push_back(cpop->schedule(inst).makespan());
  }
  EXPECT_GT(mean(cpop_ms), mean(heft_ms));
}

TEST(Families, InstancesAreDeterministic) {
  const auto a = families::heft_adversarial_instance(5);
  const auto b = families::heft_adversarial_instance(5);
  EXPECT_TRUE(a.graph.structurally_equal(b.graph));
}

}  // namespace
}  // namespace saga
