#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "core/annealer.hpp"
#include "datasets/random_graphs.hpp"
#include "sched/registry.hpp"
#include "schedulers/duplex.hpp"
#include "schedulers/fastest_node.hpp"
#include "schedulers/maxmin.hpp"
#include "schedulers/met.hpp"
#include "schedulers/minmin.hpp"
#include "schedulers/olb.hpp"
#include "schedulers/wba.hpp"

/// Behavioural invariants that distinguish the individual algorithms.

namespace saga {
namespace {

TEST(FastestNode, SerializesEverythingOnTheFastestNode) {
  const auto inst = fig1_instance();
  const Schedule s = FastestNodeScheduler{}.schedule(inst);
  const NodeId fastest = inst.network.fastest_node();
  for (const auto& a : s.assignments()) EXPECT_EQ(a.node, fastest);
  // Makespan equals the serial sum (no comm on one node, no idle gaps).
  EXPECT_DOUBLE_EQ(s.makespan(),
                   inst.graph.total_cost() / inst.network.speed(fastest));
}

TEST(FastestNode, LeavesNoIdleGaps) {
  const auto inst = chains_instance(3);
  const Schedule s = FastestNodeScheduler{}.schedule(inst);
  auto lane = s.on_node(inst.network.fastest_node());
  ASSERT_EQ(lane.size(), inst.graph.task_count());
  for (std::size_t i = 1; i < lane.size(); ++i) {
    EXPECT_DOUBLE_EQ(lane[i].start, lane[i - 1].finish);
  }
}

TEST(Met, UnderRelatedMachinesPicksTheFastestNodeForEveryTask) {
  // MET ignores availability, so on related machines it matches
  // FastestNode's placement (and makespan) exactly.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto inst = in_trees_instance(seed);
    const Schedule met = MetScheduler{}.schedule(inst);
    const Schedule fn = FastestNodeScheduler{}.schedule(inst);
    EXPECT_DOUBLE_EQ(met.makespan(), fn.makespan());
    const NodeId fastest = inst.network.fastest_node();
    for (const auto& a : met.assignments()) EXPECT_EQ(a.node, fastest);
  }
}

TEST(Duplex, NeverWorseThanEitherComponent) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto inst = chains_instance(seed);
    const double duplex = DuplexScheduler{}.schedule(inst).makespan();
    const double minmin = MinMinScheduler{}.schedule(inst).makespan();
    const double maxmin = MaxMinScheduler{}.schedule(inst).makespan();
    EXPECT_DOUBLE_EQ(duplex, std::min(minmin, maxmin));
  }
}

TEST(Olb, SpreadsIndependentTasksAcrossAllNodes) {
  ProblemInstance inst;
  for (int i = 0; i < 6; ++i) inst.graph.add_task(1.0);
  inst.network = Network(3);
  const Schedule s = OlbScheduler{}.schedule(inst);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(s.on_node(v).size(), 2u);
}

TEST(Olb, IgnoresNodeSpeedEntirely) {
  // One node is absurdly slow, but OLB still round-robins onto it.
  ProblemInstance inst;
  for (int i = 0; i < 4; ++i) inst.graph.add_task(1.0);
  inst.network = Network(2);
  inst.network.set_speed(1, 0.001);
  const Schedule s = OlbScheduler{}.schedule(inst);
  EXPECT_FALSE(s.on_node(1).empty());
}

TEST(MinMin, SchedulesShortTaskFirstOnIndependentTasks) {
  ProblemInstance inst;
  inst.graph.add_task("long", 10.0);
  inst.graph.add_task("short", 1.0);
  inst.network = Network(1);
  const Schedule s = MinMinScheduler{}.schedule(inst);
  EXPECT_LT(s.of_task(1).start, s.of_task(0).start);
}

TEST(MaxMin, SchedulesLongTaskFirstOnIndependentTasks) {
  ProblemInstance inst;
  inst.graph.add_task("long", 10.0);
  inst.graph.add_task("short", 1.0);
  inst.network = Network(1);
  const Schedule s = MaxMinScheduler{}.schedule(inst);
  EXPECT_LT(s.of_task(0).start, s.of_task(1).start);
}

TEST(MinMinVsMaxMin, DifferOnHeterogeneousIndependentWorkload) {
  // The classic configuration where MaxMin beats MinMin: several small
  // tasks and one huge task on two unequal nodes.
  ProblemInstance inst;
  inst.graph.add_task("huge", 100.0);
  for (int i = 0; i < 6; ++i) inst.graph.add_task(10.0);
  inst.network = Network(2);
  inst.network.set_speed(0, 2.0);
  const double minmin = MinMinScheduler{}.schedule(inst).makespan();
  const double maxmin = MaxMinScheduler{}.schedule(inst).makespan();
  EXPECT_LE(maxmin, minmin);
}

TEST(Wba, SeedChangesScheduleButNotValidity) {
  const auto inst = chains_instance(17);
  const Schedule a = WbaScheduler(1).schedule(inst);
  const Schedule b = WbaScheduler(2).schedule(inst);
  EXPECT_TRUE(a.validate(inst).ok);
  EXPECT_TRUE(b.validate(inst).ok);
  // Different seeds usually yield different placements somewhere.
  bool any_difference = false;
  for (TaskId t = 0; t < inst.graph.task_count(); ++t) {
    if (a.of_task(t).node != b.of_task(t).node) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Wba, ZeroToleranceIsPureGreedy) {
  // With tolerance 0 the candidate band collapses to the argmin set, so
  // two different seeds can only differ by tie-breaks among equal-increase
  // options; the makespans must match.
  const auto inst = fig1_instance();
  const double a = WbaScheduler(1, 0.0).schedule(inst).makespan();
  const double b = WbaScheduler(2, 0.0).schedule(inst).makespan();
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(HeftAndCpop, MatchOnFig1) {
  // Both find the same (good) schedule on the paper's example.
  const auto inst = fig1_instance();
  const double heft =
      SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed)->schedule(inst).makespan();
  const double cpop =
      SchedulerRegistry::instance().make("CPoP", kDefaultSchedulerSeed)->schedule(inst).makespan();
  EXPECT_NEAR(heft, 4.25, 1e-9);
  EXPECT_NEAR(cpop, 4.25, 1e-9);
}

TEST(Heft, UsesInsertionGaps) {
  // Construct a case where insertion beats append: a wide fork where a late
  // short task fits in an early idle gap on the fast node.
  ProblemInstance inst;
  const TaskId src = inst.graph.add_task("src", 1.0);
  const TaskId heavy = inst.graph.add_task("heavy", 10.0);
  const TaskId light = inst.graph.add_task("light", 1.0);
  inst.graph.add_dependency(src, heavy, 0.1);
  inst.graph.add_dependency(src, light, 20.0);  // must stay co-located
  inst.network = Network(2);
  const Schedule s =
      SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed)->schedule(inst);
  EXPECT_TRUE(s.validate(inst).ok);
}

TEST(Etf, PicksEarliestStartNotEarliestFinish) {
  // Two ready tasks on one idle homogeneous node pair: ETF schedules by
  // earliest start (ties to higher static level = bigger task).
  ProblemInstance inst;
  inst.graph.add_task("big", 10.0);
  inst.graph.add_task("small", 1.0);
  inst.network = Network(1);
  const Schedule s =
      SchedulerRegistry::instance().make("ETF", kDefaultSchedulerSeed)->schedule(inst);
  // Both could start at 0; the bigger static level (big) goes first.
  EXPECT_DOUBLE_EQ(s.of_task(0).start, 0.0);
}

TEST(AllSchedulers, NamesMatchRegistry) {
  for (const auto& name : SchedulerRegistry::instance().names("table1")) {
    EXPECT_EQ(SchedulerRegistry::instance().make(name, kDefaultSchedulerSeed)->name(), name);
  }
}

TEST(Registry, UnknownSchedulerThrows) {
  EXPECT_THROW((void)SchedulerRegistry::instance().make("NoSuchAlgorithm", 1),
               std::invalid_argument);
}

TEST(Registry, RosterSizes) {
  const auto& registry = SchedulerRegistry::instance();
  EXPECT_EQ(registry.names("table1").size(), 17u);
  EXPECT_EQ(registry.names("benchmark").size(), 15u);
  EXPECT_EQ(registry.names("app-specific").size(), 6u);
}

TEST(Registry, RequirementsMatchPaperSectionVI) {
  const auto& registry = SchedulerRegistry::instance();
  // ETF, FCP, FLB: homogeneous node speeds. BIL, GDL, FCP, FLB: homogeneous
  // link strengths.
  const auto homogeneous_speeds = {"ETF", "FCP", "FLB"};
  const auto homogeneous_links = {"BIL", "GDL", "FCP", "FLB"};
  for (const auto& name : registry.names("benchmark", NameOrder::kLexicographic)) {
    const auto reqs =
        registry.make(name, kDefaultSchedulerSeed)->requirements();
    const bool want_speed =
        std::find(homogeneous_speeds.begin(), homogeneous_speeds.end(), name) !=
        homogeneous_speeds.end();
    const bool want_links =
        std::find(homogeneous_links.begin(), homogeneous_links.end(), name) !=
        homogeneous_links.end();
    EXPECT_EQ(reqs.homogeneous_node_speeds, want_speed) << name;
    EXPECT_EQ(reqs.homogeneous_link_strengths, want_links) << name;
  }
}

}  // namespace
}  // namespace saga
