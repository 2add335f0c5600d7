#include <gtest/gtest.h>

#include "core/annealer.hpp"
#include "core/constraints.hpp"
#include "sched/registry.hpp"
#include "schedulers/bil.hpp"
#include "schedulers/brute_force.hpp"
#include "schedulers/wba.hpp"

/// Hand-computed schedules on tiny instances — these pin down the exact
/// semantics of each algorithm's selection and placement rules, beyond the
/// validity properties checked elsewhere.

namespace saga {
namespace {

/// Chain a(2) -> b(4), data 1; nodes speeds {1, 2}, link strength 0.5.
/// Optimal play: both tasks on the fast node, makespan 1 + 2 = 3.
ProblemInstance chain_ab() {
  ProblemInstance inst;
  const TaskId a = inst.graph.add_task("a", 2.0);
  const TaskId b = inst.graph.add_task("b", 4.0);
  inst.graph.add_dependency(a, b, 1.0);
  inst.network = Network(2);
  inst.network.set_speed(1, 2.0);
  inst.network.set_strength(0, 1, 0.5);
  return inst;
}

TEST(KnownAnswer, ChainAb_HeftColocatesOnFastNode) {
  const auto inst = chain_ab();
  const Schedule s =
      SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed)->schedule(inst);
  EXPECT_EQ(s.of_task(0).node, 1u);
  EXPECT_EQ(s.of_task(1).node, 1u);
  EXPECT_DOUBLE_EQ(s.makespan(), 3.0);
}

TEST(KnownAnswer, ChainAb_CpopPinsCriticalPathToFastNode) {
  const auto inst = chain_ab();
  const Schedule s =
      SchedulerRegistry::instance().make("CPoP", kDefaultSchedulerSeed)->schedule(inst);
  // Both tasks lie on the (only) critical path; the CP node is the one
  // minimising total CP execution time = the fast node.
  EXPECT_EQ(s.of_task(0).node, 1u);
  EXPECT_EQ(s.of_task(1).node, 1u);
  EXPECT_DOUBLE_EQ(s.makespan(), 3.0);
}

TEST(KnownAnswer, ChainAb_GdlAgrees) {
  const auto& registry = SchedulerRegistry::instance();
  // DL(a, v1) = SL(a) - 0 + (1.5 - 1) beats DL(a, v0) = SL(a) - 0 + (1.5-2);
  // then b's dynamic level also favours staying on the fast node.
  const auto inst = chain_ab();
  EXPECT_DOUBLE_EQ(registry.make("GDL", kDefaultSchedulerSeed)->schedule(inst).makespan(), 3.0);
}

TEST(KnownAnswer, ChainAb_MctGreedyFinishTimes) {
  const auto inst = chain_ab();
  const Schedule s =
      SchedulerRegistry::instance().make("MCT", kDefaultSchedulerSeed)->schedule(inst);
  // a: finish 2 on v0 vs 1 on v1 -> v1; b: finish 3 on v1 vs 2+2/0.5... v1.
  EXPECT_DOUBLE_EQ(s.of_task(0).finish, 1.0);
  EXPECT_DOUBLE_EQ(s.makespan(), 3.0);
}

TEST(KnownAnswer, ChainAb_MetIgnoresAvailability) {
  const auto inst = chain_ab();
  const Schedule s =
      SchedulerRegistry::instance().make("MET", kDefaultSchedulerSeed)->schedule(inst);
  EXPECT_EQ(s.of_task(0).node, 1u);  // fastest execution for every task
  EXPECT_EQ(s.of_task(1).node, 1u);
  EXPECT_DOUBLE_EQ(s.makespan(), 3.0);
}

TEST(KnownAnswer, ChainAb_OlbPicksIdleNodeRegardlessOfSpeed) {
  const auto inst = chain_ab();
  const Schedule s =
      SchedulerRegistry::instance().make("OLB", kDefaultSchedulerSeed)->schedule(inst);
  // a goes to node 0 (both idle, id tie-break), paying the slow speed;
  // b then sees node 1 idle earlier... node1 avail 0 < node0 avail 2.
  EXPECT_EQ(s.of_task(0).node, 0u);
  EXPECT_EQ(s.of_task(1).node, 1u);
  // b: data from node0 finishes at 2, transfer 1/0.5 = 2, exec 4/2 = 2.
  EXPECT_DOUBLE_EQ(s.makespan(), 6.0);
}

/// Fork a(1) -> {b(1), c(1)}; data a->b = 0, a->c = 10; 2 unit nodes with
/// unit links. Co-locating c with a avoids a 10-unit transfer.
ProblemInstance fork_heavy_edge() {
  ProblemInstance inst;
  const TaskId a = inst.graph.add_task("a", 1.0);
  const TaskId b = inst.graph.add_task("b", 1.0);
  const TaskId c = inst.graph.add_task("c", 1.0);
  inst.graph.add_dependency(a, b, 0.0);
  inst.graph.add_dependency(a, c, 10.0);
  inst.network = Network(2);
  return inst;
}

TEST(KnownAnswer, ForkHeavyEdge_FcpUsesEnablingNode) {
  const auto inst = fork_heavy_edge();
  const Schedule s =
      SchedulerRegistry::instance().make("FCP", kDefaultSchedulerSeed)->schedule(inst);
  // c must stay with a (the enabling node); b can go either way but both
  // its candidates finish at 2. Total makespan 3 = a, then b and c
  // serialised/parallelised without paying the heavy edge.
  EXPECT_EQ(s.of_task(2).node, s.of_task(0).node);
  EXPECT_DOUBLE_EQ(s.makespan(), 3.0);
}

TEST(KnownAnswer, ForkHeavyEdge_FlbMatches) {
  const auto inst = fork_heavy_edge();
  const Schedule s =
      SchedulerRegistry::instance().make("FLB", kDefaultSchedulerSeed)->schedule(inst);
  EXPECT_EQ(s.of_task(2).node, s.of_task(0).node);
  EXPECT_LE(s.makespan(), 3.0 + 1e-12);
}

TEST(KnownAnswer, ForkHeavyEdge_HeftAvoidsTheTransfer) {
  const auto inst = fork_heavy_edge();
  const Schedule s =
      SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed)->schedule(inst);
  // b and c are both sinks with equal upward rank 1 (the heavy edge only
  // contributes to a's rank), so HEFT dispatches b first (id tie-break)
  // onto a's node, and c — whose EFT elsewhere would be 12 — lands on a's
  // node too: a, b, c serialised for makespan 3, never paying the edge.
  EXPECT_EQ(s.of_task(2).node, s.of_task(0).node);
  EXPECT_DOUBLE_EQ(s.makespan(), 3.0);
}

TEST(KnownAnswer, BilIsOptimalOnChains) {
  // The BIL paper proves optimality for linear graphs; with homogeneous
  // links our implementation realises the dynamic program exactly, so on
  // random chains (links normalised to 1) BIL must match BruteForce.
  const BilScheduler bil;
  const BruteForceScheduler oracle;
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    auto inst = pisa::random_chain_instance(seed);
    pisa::normalize_instance(inst, {.homogeneous_node_speeds = false,
                                    .homogeneous_link_strengths = true});
    const double bil_ms = bil.schedule(inst).makespan();
    const double opt = oracle.schedule(inst).makespan();
    EXPECT_NEAR(bil_ms, opt, 1e-9) << "seed " << seed;
  }
}

TEST(KnownAnswer, PeftFindsTheOptimumOnFig1) {
  const auto& registry = SchedulerRegistry::instance();
  // PEFT's optimistic cost table sees that spreading the diamond pays
  // communication HEFT's pure EFT rule underestimates; it serialises on
  // the fast node and hits the BruteForce optimum 5.9/1.5, beating HEFT's
  // 4.25 — exactly the improvement Arabnejad & Barbosa report.
  const auto inst = fig1_instance();
  EXPECT_NEAR(registry.make("PEFT", kDefaultSchedulerSeed)->schedule(inst).makespan(), 5.9 / 1.5,
              1e-9);
  EXPECT_LT(registry.make("PEFT", kDefaultSchedulerSeed)->schedule(inst).makespan(),
            registry.make("HEFT", kDefaultSchedulerSeed)->schedule(inst).makespan());
}

TEST(KnownAnswer, WbaZeroToleranceOnChainAb) {
  // Greedy WBA (tolerance 0) minimises per-step makespan increase: a on
  // the fast node (increase 1 vs 2), b on the fast node (3 vs 2+2+2).
  const auto inst = chain_ab();
  const Schedule s = WbaScheduler(1, 0.0).schedule(inst);
  EXPECT_DOUBLE_EQ(s.makespan(), 3.0);
}

TEST(KnownAnswer, EtfHomogeneousForkOrder) {
  // Three independent unit tasks, two unit nodes: ETF starts two at time 0
  // (both nodes), the third at time 1 — makespan 2 regardless of order.
  ProblemInstance inst;
  for (int i = 0; i < 3; ++i) inst.graph.add_task(1.0);
  inst.network = Network(2);
  const Schedule s =
      SchedulerRegistry::instance().make("ETF", kDefaultSchedulerSeed)->schedule(inst);
  EXPECT_DOUBLE_EQ(s.makespan(), 2.0);
}

TEST(KnownAnswer, LmtLevelOrderOnDiamond) {
  // Diamond with a heavy middle task: LMT levelises {a}, {b, c}, {d} and
  // within level 1 schedules the heavy task first (claiming the fast node).
  ProblemInstance inst;
  const TaskId a = inst.graph.add_task("a", 1.0);
  const TaskId heavy = inst.graph.add_task("heavy", 8.0);
  const TaskId light = inst.graph.add_task("light", 1.0);
  const TaskId d = inst.graph.add_task("d", 1.0);
  inst.graph.add_dependency(a, heavy, 0.0);
  inst.graph.add_dependency(a, light, 0.0);
  inst.graph.add_dependency(heavy, d, 0.0);
  inst.graph.add_dependency(light, d, 0.0);
  inst.network = Network(2);
  inst.network.set_speed(0, 2.0);
  const Schedule s =
      SchedulerRegistry::instance().make("LMT", kDefaultSchedulerSeed)->schedule(inst);
  EXPECT_EQ(s.of_task(heavy).node, 0u);  // fast node
  EXPECT_TRUE(s.validate(inst).ok);
}

}  // namespace
}  // namespace saga
