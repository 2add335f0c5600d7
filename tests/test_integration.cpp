#include <gtest/gtest.h>

#include <sstream>

#include "analysis/benchmarking.hpp"
#include "analysis/ratio_matrix.hpp"
#include "core/app_specific.hpp"
#include "core/pairwise.hpp"
#include "datasets/registry.hpp"
#include "graph/serialization.hpp"
#include "sched/registry.hpp"

/// End-to-end flows mirroring what the bench binaries do, at toy scale.

namespace saga {
namespace {

TEST(Integration, MiniFig2Pipeline) {
  // Benchmark three schedulers on two datasets and render the Fig. 2 table.
  const std::vector<std::string> roster = {"HEFT", "CPoP", "FastestNode"};
  std::vector<analysis::DatasetBenchmark> benchmarks;
  for (const char* ds : {"chains", "blast"}) {
    const auto source = datasets::DatasetRegistry::instance().make(ds, 42);
    benchmarks.push_back(analysis::benchmark_source(*source, ds, 5, roster, 42));
  }
  const auto table = analysis::benchmarking_table(benchmarks, roster, "mini fig2");
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_EQ(table.columns(), 3u);
  // FastestNode serialises everything; on parallel-friendly datasets its
  // max ratio should exceed HEFT's.
  const double fn_max = benchmarks[0].for_scheduler("FastestNode").summary.max;
  const double heft_max = benchmarks[0].for_scheduler("HEFT").summary.max;
  EXPECT_GE(fn_max, heft_max);
}

TEST(Integration, MiniFig4Pipeline) {
  const std::vector<std::string> roster = {"HEFT", "FastestNode", "OLB"};
  pisa::PairwiseOptions options;
  options.pisa.restarts = 2;
  options.pisa.params.max_iterations = 80;
  const auto grid = pisa::pairwise_compare(roster, options, 42);
  const auto table = analysis::pairwise_table(grid, "mini fig4");
  EXPECT_EQ(table.rows(), 4u);  // Worst + 3
  // Every scheduler has a worst case above 1 against someone.
  for (double w : grid.worst_per_target()) EXPECT_GT(w, 1.0);
}

TEST(Integration, AdversarialWitnessSurvivesSerializationRoundTrip) {
  // PISA result -> save -> load -> replay: the ratio must be identical.
  // This is the publishing workflow the paper's conclusion proposes.
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto fn = SchedulerRegistry::instance().make("FastestNode", kDefaultSchedulerSeed);
  pisa::PisaOptions options;
  options.restarts = 2;
  const auto found = pisa::run_pisa(*heft, *fn, options, 7);
  const std::string text = instance_to_string(found.best_instance);
  const auto replayed = instance_from_string(text);
  EXPECT_DOUBLE_EQ(pisa::makespan_ratio(*heft, *fn, replayed), found.best_ratio);
}

TEST(Integration, MiniAppSpecificPipeline) {
  // One (workflow, CCR) cell of Fig. 10 end to end: benchmarking row plus
  // a 2-scheduler PISA grid.
  const std::vector<std::string> roster = {"HEFT", "CPoP"};
  const auto source = datasets::DatasetRegistry::instance().make("srasearch?ccr=1", 3);
  const auto benchmark = analysis::benchmark_source(*source, "srasearch", 4, roster, 3);

  pisa::PairwiseOptions grid_options;
  grid_options.pisa = pisa::app_specific_options("srasearch", 1.0, 3);
  grid_options.pisa.restarts = 1;
  grid_options.pisa.params.max_iterations = 50;
  const auto grid = pisa::pairwise_compare(roster, grid_options, 3);

  const auto table = analysis::app_specific_table(benchmark, grid, "srasearch CCR=1.0");
  EXPECT_EQ(table.rows(), 3u);
  // PISA cells can only be >= the benchmarking cells' floor of 1.
  EXPECT_GE(grid.cell(0, 1), 1.0 - 1e-9);
  EXPECT_GE(grid.cell(1, 0), 1.0 - 1e-9);
}

TEST(Integration, AllSixteenDatasetsGenerateAndScheduleCleanly) {
  const auto& registry = datasets::DatasetRegistry::instance();
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  for (const auto& name : registry.names("table2")) {
    const auto inst = registry.make(name, 1)->generate(0);
    const auto validation = heft->schedule(inst).validate(inst);
    EXPECT_TRUE(validation.ok) << name << ": " << validation.message;
  }
  EXPECT_EQ(registry.names("table2").size(), 16u);
}

TEST(Integration, PaperInstanceCountsRecorded) {
  const auto& registry = datasets::DatasetRegistry::instance();
  for (const auto& desc : registry.descriptors()) {
    if (!desc.has_tag("table2")) continue;
    EXPECT_EQ(desc.paper_count, desc.has_tag("workflow") ? 100u : 1000u) << desc.name;
    EXPECT_EQ(registry.make(desc.name, 1)->size(), desc.paper_count) << desc.name;
  }
}

}  // namespace
}  // namespace saga
