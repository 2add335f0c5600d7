#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/csv.hpp"
#include "analysis/gantt.hpp"
#include "analysis/ratio_matrix.hpp"
#include "datasets/registry.hpp"
#include "sched/registry.hpp"

namespace saga::analysis {
namespace {

pisa::PairwiseResult tiny_pairwise() {
  pisa::PairwiseResult result;
  result.scheduler_names = {"HEFT", "CPoP"};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  result.ratio = {{nan, 6.5}, {1.23, nan}};
  return result;
}

TEST(Gantt, ShowsEveryNodeLane) {
  const auto inst = fig1_instance();
  const auto schedule =
      SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed)->schedule(inst);
  const std::string text = render_gantt(inst, schedule);
  EXPECT_NE(text.find("node 0"), std::string::npos);
  EXPECT_NE(text.find("node 1"), std::string::npos);
  EXPECT_NE(text.find("node 2"), std::string::npos);
  EXPECT_NE(text.find("makespan"), std::string::npos);
}

TEST(Gantt, TaskNamesAppearInLanes) {
  const auto inst = fig1_instance();
  const auto schedule =
      SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed)->schedule(inst);
  const std::string text = render_gantt(inst, schedule);
  EXPECT_NE(text.find("t1"), std::string::npos);
  EXPECT_NE(text.find("t4"), std::string::npos);
}

TEST(Gantt, EmptyScheduleRendersMakespanOnly) {
  ProblemInstance inst;
  inst.network = Network(2);
  const std::string text = render_gantt(inst, Schedule{});
  EXPECT_NE(text.find("makespan = 0"), std::string::npos);
}

TEST(PairwiseTable, HasWorstRowAndClampedCells) {
  const auto table = pairwise_table(tiny_pairwise(), "Fig4");
  const std::string text = table.render();
  EXPECT_NE(text.find("Worst"), std::string::npos);
  EXPECT_NE(text.find(">5.0"), std::string::npos);  // 6.5 clamps
  EXPECT_NE(text.find("1.23"), std::string::npos);
  EXPECT_EQ(table.rows(), 3u);  // Worst + 2 baselines
}

TEST(AppSpecificTable, BenchmarkingRowFirst) {
  const auto source = datasets::DatasetRegistry::instance().make("chains", 1);
  const auto benchmark = benchmark_source(*source, "chains", 4, {"HEFT", "CPoP"}, 1);
  const auto table = app_specific_table(benchmark, tiny_pairwise(), "blast CCR=1");
  const std::string text = table.render();
  EXPECT_NE(text.find("Benchmarking"), std::string::npos);
  EXPECT_NE(text.find("HEFT (base)"), std::string::npos);
  EXPECT_EQ(table.rows(), 3u);
}

TEST(BenchmarkingTable, OneRowPerDataset) {
  const std::vector<std::string> names = {"HEFT", "OLB"};
  std::vector<DatasetBenchmark> benchmarks;
  for (const char* dataset : {"chains", "in_trees"}) {
    const auto source = datasets::DatasetRegistry::instance().make(dataset, 1);
    benchmarks.push_back(benchmark_source(*source, dataset, 3, names, 1));
  }
  const auto table = benchmarking_table(benchmarks, names, "Fig2");
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_NE(table.render().find("in_trees"), std::string::npos);
}

TEST(Csv, PairwiseFormat) {
  std::ostringstream out;
  write_pairwise_csv(out, tiny_pairwise());
  const std::string text = out.str();
  EXPECT_NE(text.find("baseline,target,ratio"), std::string::npos);
  EXPECT_NE(text.find("HEFT,CPoP,6.5"), std::string::npos);
  EXPECT_NE(text.find("CPoP,HEFT,1.23"), std::string::npos);
  // Two data rows plus header.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(Csv, PairwiseRendersInfAsWord) {
  auto result = tiny_pairwise();
  result.ratio[0][1] = std::numeric_limits<double>::infinity();
  std::ostringstream out;
  write_pairwise_csv(out, result);
  EXPECT_NE(out.str().find("HEFT,CPoP,inf"), std::string::npos);
}

TEST(Csv, BenchmarkFormat) {
  const auto source = datasets::DatasetRegistry::instance().make("chains", 1);
  std::vector<DatasetBenchmark> benchmarks = {benchmark_source(*source, "chains", 3, {"HEFT"}, 1)};
  std::ostringstream out;
  write_benchmark_csv(out, benchmarks);
  EXPECT_NE(out.str().find("dataset,scheduler,min,q1,median,q3,max,mean"), std::string::npos);
  EXPECT_NE(out.str().find("chains,HEFT,"), std::string::npos);
}

TEST(Csv, MaybeWriteRespectsEnv) {
  unsetenv("SAGA_CSV_DIR");
  EXPECT_TRUE(maybe_write_csv("x", [](std::ostream&) {}).empty());

  const auto dir = std::filesystem::temp_directory_path() / "saga_csv_test";
  std::filesystem::create_directories(dir);
  setenv("SAGA_CSV_DIR", dir.c_str(), 1);
  const auto path = maybe_write_csv("unit", [](std::ostream& out) { out << "a,b\n"; });
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  unsetenv("SAGA_CSV_DIR");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace saga::analysis
