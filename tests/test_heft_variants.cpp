#include <gtest/gtest.h>

#include "core/annealer.hpp"
#include "datasets/registry.hpp"
#include "sched/registry.hpp"
#include "schedulers/heft.hpp"

namespace saga {
namespace {

using RankStatistic = HeftScheduler::RankStatistic;

std::vector<HeftScheduler::Variant> all_variants() {
  std::vector<HeftScheduler::Variant> out;
  for (const auto rank : {RankStatistic::kMean, RankStatistic::kBest, RankStatistic::kWorst}) {
    for (const bool insertion : {true, false}) out.push_back({rank, insertion});
  }
  return out;
}

TEST(HeftVariants, DefaultIsThePublishedAlgorithm) {
  const HeftScheduler scheduler;
  EXPECT_EQ(scheduler.variant().rank, RankStatistic::kMean);
  EXPECT_TRUE(scheduler.variant().insertion);
}

TEST(HeftVariants, DefaultMatchesRegistryHeft) {
  const auto& registry = SchedulerRegistry::instance();
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto inst = pisa::random_chain_instance(seed);
    EXPECT_DOUBLE_EQ(HeftScheduler{}.schedule(inst).makespan(),
                     registry.make("HEFT", kDefaultSchedulerSeed)->schedule(inst).makespan());
  }
}

TEST(HeftVariants, AllVariantsProduceValidSchedules) {
  for (const auto& variant : all_variants()) {
    const HeftScheduler scheduler(variant);
    for (const char* dataset : {"chains", "blast"}) {
      const auto inst = datasets::DatasetRegistry::instance().make(dataset, 2)->generate(0);
      const auto result = scheduler.schedule(inst).validate(inst);
      EXPECT_TRUE(result.ok) << result.message;
    }
  }
}

TEST(HeftVariants, RankStatisticsAgreeOnHomogeneousNetworks) {
  // With equal node speeds, mean/best/worst execution times coincide, so
  // all rank statistics produce identical priority lists and schedules.
  ProblemInstance inst = datasets::DatasetRegistry::instance().make("chains", 9)->generate(0);
  for (NodeId v = 0; v < inst.network.node_count(); ++v) inst.network.set_speed(v, 1.0);
  const double mean_ms =
      HeftScheduler({RankStatistic::kMean, true}).schedule(inst).makespan();
  const double best_ms =
      HeftScheduler({RankStatistic::kBest, true}).schedule(inst).makespan();
  const double worst_ms =
      HeftScheduler({RankStatistic::kWorst, true}).schedule(inst).makespan();
  EXPECT_DOUBLE_EQ(mean_ms, best_ms);
  EXPECT_DOUBLE_EQ(mean_ms, worst_ms);
}

TEST(HeftVariants, InsertionNeverLosesToAppendOnGapFreeInstances) {
  // On Fig. 1 the insertion policy finds the same schedule as append; the
  // variants must coincide exactly there.
  const auto inst = fig1_instance();
  EXPECT_DOUBLE_EQ(HeftScheduler({RankStatistic::kMean, true}).schedule(inst).makespan(),
                   HeftScheduler({RankStatistic::kMean, false}).schedule(inst).makespan());
}

TEST(HeftVariants, InsertionCanStrictlyBeatAppend) {
  // Wide fork with one late-arriving small task: insertion slots it into
  // an idle gap that append-only placement cannot use. Search a few seeds
  // for a strict win to keep the test robust.
  bool strict_win = false;
  for (std::uint64_t seed = 0; seed < 40 && !strict_win; ++seed) {
    const auto inst = datasets::DatasetRegistry::instance().make("in_trees", seed)->generate(0);
    const double with_insertion =
        HeftScheduler({RankStatistic::kMean, true}).schedule(inst).makespan();
    const double append_only =
        HeftScheduler({RankStatistic::kMean, false}).schedule(inst).makespan();
    if (with_insertion < append_only - 1e-12) strict_win = true;
  }
  EXPECT_TRUE(strict_win);
}

TEST(HeftVariants, PisaSeparatesVariantsBenchmarkingCannot) {
  // The bench's headline, as a regression test at tiny scale: PISA finds
  // an instance where some variant pair differs by >20% even though the
  // variants tie on in-distribution data.
  const HeftScheduler paper({RankStatistic::kMean, true});
  const HeftScheduler worst({RankStatistic::kWorst, true});
  pisa::PisaOptions options;
  options.restarts = 3;
  const auto result = pisa::run_pisa(*static_cast<const Scheduler*>(&worst),
                                     *static_cast<const Scheduler*>(&paper), options, 11);
  EXPECT_GT(result.best_ratio, 1.2);
}

}  // namespace
}  // namespace saga
