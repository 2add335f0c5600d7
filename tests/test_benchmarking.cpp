#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/benchmarking.hpp"
#include "common/rng.hpp"
#include "datasets/registry.hpp"
#include "exp/cells.hpp"
#include "sched/arena.hpp"
#include "sched/registry.hpp"

namespace saga::analysis {
namespace {

/// The chains dataset every case below benchmarks a prefix of.
const datasets::InstanceSource& chains() {
  static const auto source = datasets::DatasetRegistry::instance().make("chains", 5);
  return *source;
}

TEST(Benchmarking, RatiosAreAtLeastOne) {
  const auto result = benchmark_source(chains(), "chains", 10, {"HEFT", "CPoP", "MinMin"}, 1);
  for (const auto& sb : result.per_scheduler) {
    for (double r : sb.ratios) EXPECT_GE(r, 1.0);
  }
}

TEST(Benchmarking, SomeSchedulerAttainsTheBaselinePerInstance) {
  const auto result = benchmark_source(chains(), "chains", 10, {"HEFT", "CPoP", "MinMin"}, 1);
  for (std::size_t i = 0; i < 10; ++i) {
    double best = std::numeric_limits<double>::infinity();
    for (const auto& sb : result.per_scheduler) best = std::min(best, sb.ratios[i]);
    EXPECT_DOUBLE_EQ(best, 1.0);
  }
}

TEST(Benchmarking, OneRatioVectorPerScheduler) {
  const auto result = benchmark_source(chains(), "chains", 7, {"HEFT", "OLB"}, 1);
  ASSERT_EQ(result.per_scheduler.size(), 2u);
  for (const auto& sb : result.per_scheduler) EXPECT_EQ(sb.ratios.size(), 7u);
  EXPECT_EQ(result.dataset, "chains");
}

TEST(Benchmarking, SummaryMatchesRatios) {
  const auto result = benchmark_source(chains(), "chains", 5, {"HEFT", "FastestNode"}, 1);
  for (const auto& sb : result.per_scheduler) {
    const auto s = summarize(sb.ratios);
    EXPECT_DOUBLE_EQ(sb.summary.max, s.max);
    EXPECT_DOUBLE_EQ(sb.summary.mean, s.mean);
  }
}

TEST(Benchmarking, ForSchedulerLookup) {
  const auto result = benchmark_source(chains(), "chains", 3, {"HEFT", "OLB"}, 1);
  EXPECT_EQ(result.for_scheduler("OLB").scheduler, "OLB");
  EXPECT_THROW((void)result.for_scheduler("CPoP"), std::out_of_range);
}

TEST(Benchmarking, DeterministicAcrossRuns) {
  const auto a = benchmark_source(chains(), "chains", 6, {"HEFT", "WBA"}, 9);
  const auto b = benchmark_source(chains(), "chains", 6, {"HEFT", "WBA"}, 9);
  for (std::size_t s = 0; s < 2; ++s) {
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_DOUBLE_EQ(a.per_scheduler[s].ratios[i], b.per_scheduler[s].ratios[i]);
    }
  }
}

TEST(Benchmarking, SingleSchedulerAlwaysRatioOne) {
  const auto result = benchmark_source(chains(), "chains", 4, {"MCT"}, 1);
  for (double r : result.for_scheduler("MCT").ratios) EXPECT_DOUBLE_EQ(r, 1.0);
}

TEST(Benchmarking, OlbNeverBeatsItsBetters) {
  // OLB ignores speeds entirely; across a dataset its max ratio should be
  // at least as bad as HEFT's.
  const auto result = benchmark_source(chains(), "chains", 20, {"HEFT", "OLB"}, 2);
  EXPECT_GE(result.for_scheduler("OLB").summary.max,
            result.for_scheduler("HEFT").summary.max);
}

TEST(Benchmarking, PlanMakespanMatchesScheduleOnBenchGridFamilies) {
  // Benchmark cells record plan_makespan; it must equal
  // schedule().makespan() bit for bit for every @benchmark scheduler, with
  // the per-cell seeds the cell executor derives, through a warm arena and
  // one-shot. The datasets mirror perfbench's bench_grid spec. A second
  // pass covers the list schedulers outside the benchmark roster: the
  // extensions and every Online policy.
  const std::vector<std::pair<std::vector<std::string>, std::size_t>> passes = {
      {{"@benchmark"}, 15},
      {{"PEFT", "LMT", "MH", "Online?policy=eft", "Online?policy=rr", "Online?policy=fastest",
        "Online?policy=locality", "Online?policy=random"},
       8},
  };
  exp::ExperimentSpec spec;
  spec.mode = exp::Mode::kBenchmark;
  spec.datasets = {{"montage?n=30", 4},
                   {"srasearch?n=40", 4},
                   {"out_trees?levels=5&branch=3", 4},
                   {"chains?chains=8&length=12", 4},
                   {"erdos?n=80", 4},
                   {"etl", 4},
                   {"predict", 4}};
  const auto& registry = SchedulerRegistry::instance();
  const auto bits = [](double value) { return std::bit_cast<std::uint64_t>(value); };
  TimelineArena arena;
  for (const auto& [schedulers, roster_size] : passes) {
    spec.schedulers = schedulers;
    for (const std::uint64_t seed : {1ULL, 42ULL}) {
      spec.seed = seed;
      const exp::CellPlan plan = exp::enumerate_cells(spec);
      ASSERT_EQ(plan.roster.size(), roster_size);
      for (const exp::WorkCell& cell : plan.cells) {
        const ProblemInstance inst = plan.sources[cell.dataset]->generate(cell.instance);
        for (std::size_t s = 0; s < plan.roster.size(); ++s) {
          const auto scheduler =
              registry.make(plan.roster[s], derive_seed(seed, {0xbe5cULL, s, cell.instance}));
          EXPECT_EQ(bits(scheduler->plan_makespan(inst, &arena)),
                    bits(scheduler->schedule(inst, &arena).makespan()))
              << plan.roster[s] << " on " << cell.key << ", warm arena";
          EXPECT_EQ(bits(scheduler->plan_makespan(inst, nullptr)),
                    bits(scheduler->schedule(inst, nullptr).makespan()))
              << plan.roster[s] << " on " << cell.key << ", one-shot";
        }
      }
    }
  }
}

}  // namespace
}  // namespace saga::analysis
