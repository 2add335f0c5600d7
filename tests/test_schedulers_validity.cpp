#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "core/annealer.hpp"
#include "datasets/registry.hpp"
#include "sched/registry.hpp"

/// Property suite: every polynomial-time scheduler must produce a *valid*
/// schedule — all tasks exactly once, no node overlap, all data-arrival
/// constraints met — on instances drawn from every dataset family, and must
/// be deterministic for a fixed seed.

namespace saga {
namespace {

using Param = std::tuple<std::string /*scheduler*/, std::string /*dataset*/>;

class SchedulerValidity : public ::testing::TestWithParam<Param> {};

TEST_P(SchedulerValidity, ProducesValidSchedules) {
  const auto& [sched_name, dataset] = GetParam();
  const auto scheduler = SchedulerRegistry::instance().make(sched_name, 123);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto inst = datasets::DatasetRegistry::instance().make(dataset, 7)->generate(i);
    const Schedule s = scheduler->schedule(inst);
    const auto result = s.validate(inst);
    EXPECT_TRUE(result.ok) << sched_name << " on " << dataset << "[" << i
                           << "]: " << result.message;
    EXPECT_EQ(s.size(), inst.graph.task_count());
    EXPECT_GE(s.makespan(), 0.0);
  }
}

TEST_P(SchedulerValidity, DeterministicForFixedSeed) {
  const auto& [sched_name, dataset] = GetParam();
  const auto inst = datasets::DatasetRegistry::instance().make(dataset, 11)->generate(0);
  const auto a = SchedulerRegistry::instance().make(sched_name, 5)->schedule(inst);
  const auto b = SchedulerRegistry::instance().make(sched_name, 5)->schedule(inst);
  ASSERT_EQ(a.size(), b.size());
  for (TaskId t = 0; t < inst.graph.task_count(); ++t) {
    EXPECT_EQ(a.of_task(t).node, b.of_task(t).node);
    EXPECT_DOUBLE_EQ(a.of_task(t).start, b.of_task(t).start);
  }
}

std::vector<Param> validity_params() {
  const auto& registry = SchedulerRegistry::instance();
  std::vector<Param> params;
  // Every polynomial scheduler crossed with a structurally diverse subset
  // of the datasets (all 16 would make this suite needlessly slow; these
  // six cover trees, chains, fork-join, layered, multi-pipeline, and the
  // large Edge/Fog/Cloud networks).
  const std::vector<std::string> datasets = {"in_trees", "chains",  "blast",
                                             "montage",  "epigenomics", "etl"};
  for (const auto& s : registry.names("benchmark", NameOrder::kLexicographic)) {
    for (const auto& d : datasets) params.emplace_back(s, d);
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllSchedulersAllFamilies, SchedulerValidity,
                         ::testing::ValuesIn(validity_params()),
                         [](const ::testing::TestParamInfo<Param>& info) {
                           return std::get<0>(info.param) + "_" + std::get<1>(info.param);
                         });

/// PISA-style instances (tiny chains with near-zero weights) are the other
/// stress regime: zero task costs, epsilon network weights.
class SchedulerOnPisaInstances : public ::testing::TestWithParam<std::string> {};

TEST_P(SchedulerOnPisaInstances, ValidOnRandomChainInstances) {
  const auto scheduler = SchedulerRegistry::instance().make(GetParam(), 99);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto inst = pisa::random_chain_instance(seed);
    const Schedule s = scheduler->schedule(inst);
    const auto result = s.validate(inst);
    EXPECT_TRUE(result.ok) << GetParam() << " seed " << seed << ": " << result.message;
  }
}

TEST_P(SchedulerOnPisaInstances, HandlesAllZeroCostGraph) {
  ProblemInstance inst;
  const TaskId a = inst.graph.add_task("a", 0.0);
  const TaskId b = inst.graph.add_task("b", 0.0);
  inst.graph.add_dependency(a, b, 0.0);
  inst.network = Network(3);
  const auto scheduler = SchedulerRegistry::instance().make(GetParam(), 1);
  const Schedule s = scheduler->schedule(inst);
  EXPECT_TRUE(s.validate(inst).ok);
  EXPECT_DOUBLE_EQ(s.makespan(), 0.0);
}

TEST_P(SchedulerOnPisaInstances, HandlesSingleTaskSingleNode) {
  ProblemInstance inst;
  inst.graph.add_task("only", 2.0);
  inst.network = Network(1);
  const auto scheduler = SchedulerRegistry::instance().make(GetParam(), 1);
  const Schedule s = scheduler->schedule(inst);
  EXPECT_TRUE(s.validate(inst).ok);
  EXPECT_DOUBLE_EQ(s.makespan(), 2.0);
}

TEST_P(SchedulerOnPisaInstances, HandlesEmptyGraph) {
  ProblemInstance inst;
  inst.network = Network(2);
  const auto scheduler = SchedulerRegistry::instance().make(GetParam(), 1);
  const Schedule s = scheduler->schedule(inst);
  EXPECT_EQ(s.size(), 0u);
  EXPECT_DOUBLE_EQ(s.makespan(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SchedulerOnPisaInstances,
                         ::testing::ValuesIn(SchedulerRegistry::instance().names(
                             "benchmark", NameOrder::kLexicographic)),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace saga
