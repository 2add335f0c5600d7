#include <gtest/gtest.h>

#include "analysis/benchmarking.hpp"
#include "datasets/registry.hpp"

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

}  // namespace
}  // namespace saga::analysis
