#include <gtest/gtest.h>

#include "core/annealer.hpp"
#include "datasets/families.hpp"
#include "sched/registry.hpp"

/// The HEFT-vs-CPoP case study of Sections V and VI-B.

namespace saga {
namespace {

TEST(Fig3, InstanceShapeMatchesPaper) {
  const auto inst = families::fig3_instance(false);
  ASSERT_EQ(inst.graph.task_count(), 5u);
  EXPECT_EQ(inst.graph.dependency_count(), 6u);
  for (TaskId t = 0; t < 5; ++t) EXPECT_DOUBLE_EQ(inst.graph.cost(t), 3.0);
  EXPECT_DOUBLE_EQ(inst.graph.dependency_cost(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(inst.graph.dependency_cost(1, 4), 3.0);
  EXPECT_TRUE(inst.network.homogeneous_speeds());
  EXPECT_TRUE(inst.network.homogeneous_strengths());
}

TEST(Fig3, ModifiedNetworkWeakensNode3Links) {
  const auto inst = families::fig3_instance(true);
  EXPECT_DOUBLE_EQ(inst.network.strength(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(inst.network.strength(0, 2), 0.5);
  EXPECT_DOUBLE_EQ(inst.network.strength(1, 2), 0.5);
}

TEST(Fig3, KnownMakespansUnderOurTieBreaks) {
  // The paper's drawn schedules (HEFT 16 vs CPoP 15 on the modified
  // network) depend on unspecified tie-breaking among the three identical
  // middle tasks; with our smallest-id tie-breaks both algorithms avoid the
  // weakened node and achieve 14 on both networks. The qualitative
  // ranking-flip phenomenon is demonstrated by PISA below instead.
  for (bool weakened : {false, true}) {
    const auto inst = families::fig3_instance(weakened);
    const auto heft =
        SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed)->schedule(inst);
    const auto cpop =
        SchedulerRegistry::instance().make("CPoP", kDefaultSchedulerSeed)->schedule(inst);
    EXPECT_TRUE(heft.validate(inst).ok);
    EXPECT_TRUE(cpop.validate(inst).ok);
    EXPECT_DOUBLE_EQ(heft.makespan(), 14.0);
    EXPECT_DOUBLE_EQ(cpop.makespan(), 14.0);
  }
}

TEST(Fig3, SerialBoundIsFifteen) {
  const auto& registry = SchedulerRegistry::instance();
  // Sanity anchor from the paper's Gantt charts: full serialisation on one
  // unit-speed node takes 15.
  const auto inst = families::fig3_instance(true);
  EXPECT_DOUBLE_EQ(registry.make("FastestNode", kDefaultSchedulerSeed)->schedule(inst).makespan(),
                   15.0);
}

TEST(CaseStudy, PisaFindsInstanceWhereHeftLosesToCpop) {
  // Fig. 5's phenomenon, rediscovered: a small instance where HEFT is
  // noticeably worse than CPoP.
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto cpop = SchedulerRegistry::instance().make("CPoP", kDefaultSchedulerSeed);
  pisa::PisaOptions options;
  options.restarts = 5;
  const auto result = pisa::run_pisa(*heft, *cpop, options, 2024);
  EXPECT_GT(result.best_ratio, 1.2);
  // Witness replays: the instance genuinely produces the ratio.
  EXPECT_NEAR(pisa::makespan_ratio(*heft, *cpop, result.best_instance),
              result.best_ratio, 1e-9);
}

TEST(CaseStudy, PisaFindsInstanceWhereCpopLosesToHeft) {
  // Fig. 6's phenomenon: committing the critical path to the fastest node
  // backfires for CPoP.
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto cpop = SchedulerRegistry::instance().make("CPoP", kDefaultSchedulerSeed);
  pisa::PisaOptions options;
  options.restarts = 5;
  const auto result = pisa::run_pisa(*cpop, *heft, options, 2025);
  EXPECT_GT(result.best_ratio, 1.2);
}

TEST(CaseStudy, NeitherAlgorithmDominatesTheOther) {
  // Section VI-A: "we don't see many algorithms that are strictly better
  // or worse than others" — both directions find ratios above 1.
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto cpop = SchedulerRegistry::instance().make("CPoP", kDefaultSchedulerSeed);
  pisa::PisaOptions options;
  options.restarts = 3;
  const double heft_worst = pisa::run_pisa(*heft, *cpop, options, 1).best_ratio;
  const double cpop_worst = pisa::run_pisa(*cpop, *heft, options, 1).best_ratio;
  EXPECT_GT(heft_worst, 1.0);
  EXPECT_GT(cpop_worst, 1.0);
}

}  // namespace
}  // namespace saga
