// The result store and the shard/merge/resume equivalence pins — the
// acceptance contract of the sharded executor: for benchmark (fig02-tiny
// shaped), pisa-pairwise (fig04-small shaped) and schedule specs,
//
//   monolithic run ≡ merge(shard 1/N .. N/N) ≡ interrupted-then-resumed run
//
// byte for byte across the CSV and JSON artifacts, for every shard count
// 1..4. Plus: crash recovery from a torn JSONL record, loud merge failures
// (missing cells, spec-hash mismatch, conflicting duplicates), the segment
// layout (one file per run, legacy per-cell stores, concurrent writers),
// and the regression test for `threads` being silently ignored in schedule
// mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "exp/cells.hpp"
#include "exp/experiment.hpp"
#include "exp/resultstore.hpp"

namespace {

namespace fs = std::filesystem;
using namespace saga;
using exp::CellPlan;
using exp::ExperimentSpec;
using exp::Mode;
using exp::ResultStore;
using exp::RunOptions;

/// Fresh scratch directory under the test temp dir.
fs::path scratch(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("resultstore_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Every file under `<store>/cells`, sorted.
std::vector<fs::path> cell_files(const fs::path& store) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(store / "cells")) files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

/// The store's single segment (empty path, with a failure, otherwise).
fs::path only_segment(const fs::path& store) {
  const auto files = cell_files(store);
  EXPECT_EQ(files.size(), 1u) << "expected exactly one segment in " << store;
  return files.size() == 1 ? files.front() : fs::path();
}

/// fig02-tiny shaped: two small datasets, three schedulers.
ExperimentSpec benchmark_spec() {
  ExperimentSpec spec;
  spec.name = "equivalence-benchmark";
  spec.mode = Mode::kBenchmark;
  spec.schedulers = {"HEFT", "CPoP", "MinMin"};
  spec.datasets = {{"blast", 3}, {"montage?n=10&ccr=1", 3}};
  spec.seed = 42;
  return spec;
}

/// fig04-small shaped: 3-scheduler PISA grid, quick settings.
ExperimentSpec pisa_spec() {
  ExperimentSpec spec;
  spec.name = "equivalence-pisa";
  spec.mode = Mode::kPisaPairwise;
  spec.schedulers = {"CPoP", "FastestNode", "HEFT"};
  spec.pisa.restarts = 1;
  spec.pisa.max_iterations = 40;
  spec.seed = 42;
  return spec;
}

ExperimentSpec schedule_spec() {
  ExperimentSpec spec;
  spec.name = "equivalence-schedule";
  spec.mode = Mode::kSchedule;
  spec.schedulers = {"HEFT", "CPoP", "MinMin", "wba?tolerance=0.25"};
  spec.instance.dataset = "blast";
  spec.seed = 42;
  return spec;
}

struct Artifacts {
  std::string csv;
  std::string json;
};

/// Runs the spec monolithically with csv/json sinks under `dir`.
Artifacts run_monolithic(ExperimentSpec spec, const fs::path& dir,
                         const RunOptions& options = {}) {
  fs::create_directories(dir);
  spec.csv = (dir / "out.csv").string();
  spec.json = (dir / "out.json").string();
  std::ostringstream sink;
  const auto result = exp::run_experiment(spec, sink, options);
  EXPECT_TRUE(result.stats.complete);
  return {slurp(dir / "out.csv"), slurp(dir / "out.json")};
}

/// Runs the spec as N shards into per-shard stores; returns the store dirs.
std::vector<fs::path> run_shards(const ExperimentSpec& spec, const fs::path& dir,
                                 std::size_t shards) {
  std::vector<fs::path> stores;
  for (std::size_t i = 1; i <= shards; ++i) {
    RunOptions options;
    options.shard_index = i;
    options.shard_count = shards;
    options.out_dir = (dir / ("store_" + std::to_string(i))).string();
    std::ostringstream sink;
    const auto result = exp::run_experiment(spec, sink, options);
    EXPECT_EQ(result.stats.complete, shards == 1);
    stores.emplace_back(options.out_dir);
  }
  return stores;
}

/// Merges stores and emits csv/json artifacts under `dir`.
Artifacts merge_to_artifacts(const std::vector<fs::path>& stores, const fs::path& dir) {
  fs::create_directories(dir);
  auto merged = exp::merge_stores(stores);
  merged.spec.csv = (dir / "merged.csv").string();
  merged.spec.json = (dir / "merged.json").string();
  std::ostringstream sink;
  exp::emit_result(merged.spec, merged.result, sink);
  return {slurp(dir / "merged.csv"), slurp(dir / "merged.json")};
}

class ShardMergeEquivalence : public testing::TestWithParam<const char*> {};

ExperimentSpec spec_for(const std::string& which) {
  if (which == "benchmark") return benchmark_spec();
  if (which == "pisa") return pisa_spec();
  return schedule_spec();
}

TEST_P(ShardMergeEquivalence, MergeOfAnyShardCountMatchesMonolithicByteForByte) {
  const std::string which = GetParam();
  const fs::path dir = scratch("equiv_" + which);
  const Artifacts golden = run_monolithic(spec_for(which), dir / "mono");

  for (std::size_t shards = 1; shards <= 4; ++shards) {
    const fs::path shard_dir = dir / ("n" + std::to_string(shards));
    const auto stores = run_shards(spec_for(which), shard_dir, shards);
    const Artifacts merged = merge_to_artifacts(stores, shard_dir);
    EXPECT_EQ(merged.csv, golden.csv) << which << " csv, " << shards << " shards";
    EXPECT_EQ(merged.json, golden.json) << which << " json, " << shards << " shards";
  }
}

TEST_P(ShardMergeEquivalence, InterruptedRunResumesToTheMonolithicArtifacts) {
  const std::string which = GetParam();
  const fs::path dir = scratch("resume_" + which);
  const Artifacts golden = run_monolithic(spec_for(which), dir / "mono");

  // "Interrupt" a run by executing only shard 1/2 into the store, then
  // resume the full grid against the same store.
  const fs::path store_dir = dir / "store";
  {
    RunOptions options;
    options.shard_index = 1;
    options.shard_count = 2;
    options.out_dir = store_dir.string();
    std::ostringstream sink;
    const auto partial = exp::run_experiment(spec_for(which), sink, options);
    EXPECT_FALSE(partial.stats.complete);
  }
  ExperimentSpec spec = spec_for(which);
  spec.csv = (dir / "resumed.csv").string();
  spec.json = (dir / "resumed.json").string();
  RunOptions options;
  options.out_dir = store_dir.string();
  options.resume = true;
  std::ostringstream sink;
  const auto resumed = exp::run_experiment(spec, sink, options);
  EXPECT_TRUE(resumed.stats.complete);
  EXPECT_GT(resumed.stats.reused, 0u);
  EXPECT_GT(resumed.stats.executed, 0u);
  EXPECT_EQ(resumed.stats.reused + resumed.stats.executed, resumed.stats.total_cells);
  EXPECT_EQ(slurp(dir / "resumed.csv"), golden.csv);
  EXPECT_EQ(slurp(dir / "resumed.json"), golden.json);

  // A second resume finds everything done and still emits the artifacts.
  std::ostringstream sink2;
  const auto again = exp::run_experiment(spec, sink2, options);
  EXPECT_EQ(again.stats.executed, 0u);
  EXPECT_EQ(again.stats.reused, again.stats.total_cells);
  EXPECT_EQ(slurp(dir / "resumed.csv"), golden.csv);
}

INSTANTIATE_TEST_SUITE_P(AllModes, ShardMergeEquivalence,
                         testing::Values("benchmark", "pisa", "schedule"));

TEST(ResultStoreCrashRecovery, TornRecordIsDetectedAndOnlyThatCellReRuns) {
  const fs::path dir = scratch("torn");
  const Artifacts golden = run_monolithic(benchmark_spec(), dir / "mono");

  const fs::path store_dir = dir / "store";
  RunOptions options;
  options.out_dir = store_dir.string();
  {
    std::ostringstream sink;
    (void)exp::run_experiment(benchmark_spec(), sink, options);
  }
  // Tear the segment's last record mid-write: drop its trailing bytes.
  const fs::path victim = only_segment(store_dir);
  ASSERT_TRUE(fs::exists(victim));
  fs::resize_file(victim, fs::file_size(victim) - 9);

  ExperimentSpec spec = benchmark_spec();
  spec.csv = (dir / "recovered.csv").string();
  spec.json = (dir / "recovered.json").string();
  options.resume = true;
  std::ostringstream sink;
  const auto recovered = exp::run_experiment(spec, sink, options);
  EXPECT_EQ(recovered.stats.torn, 1u);
  EXPECT_EQ(recovered.stats.executed, 1u) << "only the torn cell re-runs";
  EXPECT_EQ(recovered.stats.reused, recovered.stats.total_cells - 1);
  EXPECT_EQ(slurp(dir / "recovered.csv"), golden.csv);
  EXPECT_EQ(slurp(dir / "recovered.json"), golden.json);

  // The repaired store now merges cleanly to the same artifacts.
  const Artifacts merged = merge_to_artifacts({store_dir}, dir);
  EXPECT_EQ(merged.csv, golden.csv);
  EXPECT_EQ(merged.json, golden.json);
}

TEST(ResultStoreCrashRecovery, TornTailStaysOnDiskAndStaysHarmless) {
  const fs::path dir = scratch("torn_twice");
  const Artifacts golden = run_monolithic(benchmark_spec(), dir / "mono");
  const fs::path store_dir = dir / "store";
  RunOptions options;
  options.out_dir = store_dir.string();
  std::ostringstream sink;
  (void)exp::run_experiment(benchmark_spec(), sink, options);
  const fs::path victim = only_segment(store_dir);
  ASSERT_FALSE(victim.empty());
  fs::resize_file(victim, fs::file_size(victim) - 9);
  const auto torn_size = fs::file_size(victim);

  options.resume = true;
  const auto first = exp::run_experiment(benchmark_spec(), sink, options);
  EXPECT_EQ(first.stats.executed, 1u);
  EXPECT_EQ(cell_files(store_dir).size(), 2u) << "the re-run cell goes to a fresh segment";
  const auto second = exp::run_experiment(benchmark_spec(), sink, options);
  EXPECT_EQ(second.stats.executed, 0u);
  EXPECT_EQ(second.stats.reused, second.stats.total_cells);
  EXPECT_EQ(cell_files(store_dir).size(), 2u) << "a run that writes no cell makes no segment";

  // Scans never rewrite a segment: the torn tail is still there, and merge
  // accepts it because another segment covers its cell.
  EXPECT_EQ(fs::file_size(victim), torn_size);
  const Artifacts merged = merge_to_artifacts({store_dir}, dir);
  EXPECT_EQ(merged.csv, golden.csv);
  EXPECT_EQ(merged.json, golden.json);
}

TEST(ResultStoreCrashRecovery, TornCountIgnoresTearsWhoseCellIsCovered) {
  const fs::path dir = scratch("torn_count");
  const fs::path store_dir = dir / "store";
  RunOptions options;
  options.out_dir = store_dir.string();
  std::ostringstream sink;
  (void)exp::run_experiment(benchmark_spec(), sink, options);
  const fs::path victim = only_segment(store_dir);
  ASSERT_FALSE(victim.empty());
  fs::resize_file(victim, fs::file_size(victim) - 9);

  options.resume = true;
  const auto repair = exp::run_experiment(benchmark_spec(), sink, options);
  EXPECT_EQ(repair.stats.torn, 1u);
  EXPECT_EQ(repair.stats.executed, 1u);
  // The tear stays on disk, but a valid record now covers its cell.
  const auto later = exp::run_experiment(benchmark_spec(), sink, options);
  EXPECT_EQ(later.stats.torn, 0u);
  EXPECT_EQ(later.stats.executed, 0u);

  const ExperimentSpec spec = benchmark_spec();
  const CellPlan plan = exp::enumerate_cells(spec);
  const std::string hash = exp::plan_hash_hex(spec, plan);
  // Lines whose cell index cannot be read still count: one cut inside the
  // index (no comma after it yet), one cut before it, one not JSON at all.
  // A prefix naming a covered cell does not.
  {
    std::ofstream extra(store_dir / "cells" / "z-extra.jsonl", std::ios::binary);
    extra << R"({"v": 1, "spec": ")" << hash << R"(", "cell": 0, "key": "b)" << "\n"
          << "not json\n"
          << R"({"v": 1, "spec": ")" << hash << "\n"
          << R"({"v": 1, "spec": ")" << hash << R"(", "cell": 1)";
  }
  const auto scan = ResultStore(store_dir).scan(plan, hash);
  ASSERT_EQ(scan.torn.size(), 5u);
  EXPECT_EQ(scan.uncovered_torn(), 3u);
  ASSERT_TRUE(scan.torn.back().segment.filename() == "z-extra.jsonl");
  EXPECT_FALSE(scan.torn.back().cell.has_value());
  EXPECT_EQ(exp::run_experiment(benchmark_spec(), sink, options).stats.torn, 3u);
}

TEST(ResultStoreMerge, FailsLoudlyOnMissingCellsAndTornRecords) {
  const fs::path dir = scratch("missing");
  const auto stores = run_shards(benchmark_spec(), dir, 3);
  try {
    (void)exp::merge_stores({stores[0]});
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cells missing"), std::string::npos) << what;
    EXPECT_NE(what.find("bench:"), std::string::npos) << "names a missing cell: " << what;
  }

  // A torn record whose cell no other store covers counts as missing and is
  // called out by path.
  const fs::path victim = only_segment(stores[0]);
  ASSERT_TRUE(fs::exists(victim));
  fs::resize_file(victim, fs::file_size(victim) - 5);
  try {
    (void)exp::merge_stores(stores);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("torn"), std::string::npos) << e.what();
  }
}

TEST(ResultStoreMerge, RefusesSpecHashMismatchesAndConflictingDuplicates) {
  const fs::path dir = scratch("conflicts");
  const auto stores_a = run_shards(benchmark_spec(), dir / "a", 2);
  ExperimentSpec other = benchmark_spec();
  other.seed = 7;
  std::ostringstream sink;
  RunOptions options;
  options.shard_index = 2;
  options.shard_count = 2;
  options.out_dir = (dir / "b").string();
  (void)exp::run_experiment(other, sink, options);
  try {
    (void)exp::merge_stores({stores_a[0], dir / "b"});
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("spec hash"), std::string::npos) << e.what();
  }

  // Conflicting duplicate: same cell, tampered payload.
  const ExperimentSpec spec = benchmark_spec();
  const CellPlan plan = exp::enumerate_cells(spec);
  const std::string hash = exp::plan_hash_hex(spec, plan);
  ResultStore tampered(stores_a[1]);
  auto scan = tampered.scan(plan, hash);
  ASSERT_FALSE(scan.records.empty());
  auto record = scan.records.begin()->second;
  record.payload.set("makespans", exp::Json::array({exp::Json::number(1.0),
                                                    exp::Json::number(2.0),
                                                    exp::Json::number(3.0)}));
  const fs::path copy_dir = dir / "tampered";
  ResultStore copy(copy_dir);
  copy.initialize(exp::frozen_spec(spec, plan), hash);
  copy.write_cell(record);
  try {
    (void)exp::merge_stores({stores_a[0], stores_a[1], copy_dir});
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("differs between stores"), std::string::npos)
        << e.what();
  }
}

TEST(ResultStoreSegments, OneRunWritesExactlyOneFile) {
  const fs::path dir = scratch("one_segment");
  RunOptions options;
  options.out_dir = (dir / "store").string();
  std::ostringstream sink;
  const auto result = exp::run_experiment(benchmark_spec(), sink, options);
  ASSERT_GT(result.stats.executed, 1u);
  EXPECT_EQ(cell_files(dir / "store").size(), 1u);
}

TEST(ResultStoreSegments, LegacyPerCellStoreScansResumesAndMerges) {
  // The older layout wrote one `c<index>.jsonl` file per record. Rebuild a
  // store that way by hand from a segment-layout run's record lines.
  const fs::path dir = scratch("legacy");
  const Artifacts golden = run_monolithic(benchmark_spec(), dir / "mono");
  RunOptions options;
  options.out_dir = (dir / "segmented").string();
  std::ostringstream sink;
  (void)exp::run_experiment(benchmark_spec(), sink, options);

  const fs::path legacy = dir / "legacy";
  fs::create_directories(legacy / "cells");
  fs::copy_file(dir / "segmented" / "spec.json", legacy / "spec.json");
  std::istringstream lines(slurp(only_segment(dir / "segmented")));
  std::size_t written = 0;
  for (std::string line; std::getline(lines, line); ++written) {
    const auto index =
        static_cast<std::size_t>(exp::Json::parse(line).find("cell")->as_number());
    char name[32];
    std::snprintf(name, sizeof name, "c%08zu.jsonl", index);
    std::ofstream(legacy / "cells" / name, std::ios::binary) << line << '\n';
  }

  const ExperimentSpec spec = benchmark_spec();
  const CellPlan plan = exp::enumerate_cells(spec);
  ASSERT_EQ(written, plan.cells.size());
  const auto scan = ResultStore(legacy).scan(plan, exp::plan_hash_hex(spec, plan));
  EXPECT_EQ(scan.records.size(), plan.cells.size());
  EXPECT_TRUE(scan.torn.empty());

  const Artifacts merged = merge_to_artifacts({legacy}, dir / "merged");
  EXPECT_EQ(merged.csv, golden.csv);
  EXPECT_EQ(merged.json, golden.json);

  // Drop two legacy records; --resume re-runs exactly those into a segment
  // beside the remaining per-cell files.
  fs::remove(legacy / "cells" / "c00000001.jsonl");
  fs::remove(legacy / "cells" / "c00000004.jsonl");
  ExperimentSpec resumed = benchmark_spec();
  resumed.csv = (dir / "resumed.csv").string();
  resumed.json = (dir / "resumed.json").string();
  options.out_dir = legacy.string();
  options.resume = true;
  const auto result = exp::run_experiment(resumed, sink, options);
  EXPECT_EQ(result.stats.executed, 2u);
  EXPECT_EQ(result.stats.reused, plan.cells.size() - 2);
  EXPECT_EQ(slurp(dir / "resumed.csv"), golden.csv);
  EXPECT_EQ(slurp(dir / "resumed.json"), golden.json);
  EXPECT_EQ(cell_files(legacy).size(), plan.cells.size() - 2 + 1);
}

TEST(ResultStoreSegments, ConcurrentWritersKeepIdenticalDuplicatesAndRefuseConflicts) {
  const fs::path dir = scratch("concurrent");
  const ExperimentSpec spec = benchmark_spec();
  const CellPlan plan = exp::enumerate_cells(spec);
  const std::string hash = exp::plan_hash_hex(spec, plan);
  RunOptions options;
  options.out_dir = (dir / "source").string();
  std::ostringstream sink;
  (void)exp::run_experiment(spec, sink, options);
  const auto source = ResultStore(dir / "source").scan(plan, hash);
  ASSERT_EQ(source.records.size(), plan.cells.size());

  // Two runs sharing one store: writer a takes cells [0, 4), writer b
  // takes [2, end), so cells 2 and 3 are written twice.
  const fs::path shared = dir / "shared";
  {
    ResultStore a(shared);
    ResultStore b(shared);
    a.initialize(exp::frozen_spec(spec, plan), hash);
    b.initialize(exp::frozen_spec(spec, plan), hash);
    std::thread first([&] {
      for (std::size_t c = 0; c < 4; ++c) a.write_cell(source.records.at(c));
    });
    std::thread second([&] {
      for (std::size_t c = 2; c < plan.cells.size(); ++c) b.write_cell(source.records.at(c));
    });
    first.join();
    second.join();
  }
  EXPECT_EQ(cell_files(shared).size(), 2u);
  const auto scan = ResultStore(shared).scan(plan, hash);
  EXPECT_TRUE(scan.torn.empty());
  ASSERT_EQ(scan.records.size(), plan.cells.size());
  for (const auto& [index, record] : scan.records) {
    EXPECT_EQ(record.payload.dump(), source.records.at(index).payload.dump()) << index;
  }
  const Artifacts golden = merge_to_artifacts({dir / "source"}, dir / "golden");
  const Artifacts merged = merge_to_artifacts({shared}, dir / "merged");
  EXPECT_EQ(merged.csv, golden.csv);
  EXPECT_EQ(merged.json, golden.json);

  // A third writer appends a tampered duplicate of cell 3: the store now
  // disagrees with itself, and scan refuses, naming the cell.
  auto tampered = source.records.at(3);
  tampered.payload.set("makespans", exp::Json::array({exp::Json::number(1.0),
                                                      exp::Json::number(2.0),
                                                      exp::Json::number(3.0)}));
  ResultStore(shared).write_cell(tampered);
  EXPECT_EQ(cell_files(shared).size(), 3u);
  try {
    (void)ResultStore(shared).scan(plan, hash);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(plan.cells[3].key), std::string::npos) << e.what();
  }
  EXPECT_THROW((void)exp::merge_stores({shared}), std::runtime_error);
}

TEST(ResultStore, RefusesToResumeADifferentExperiment) {
  const fs::path dir = scratch("wrong_resume");
  RunOptions options;
  options.out_dir = (dir / "store").string();
  std::ostringstream sink;
  (void)exp::run_experiment(benchmark_spec(), sink, options);

  ExperimentSpec other = benchmark_spec();
  other.seed = 99;
  options.resume = true;
  EXPECT_THROW((void)exp::run_experiment(other, sink, options), std::runtime_error);
}

TEST(ResultStore, StoredSpecIsItselfRunnable) {
  const fs::path dir = scratch("spec_roundtrip");
  RunOptions options;
  options.out_dir = (dir / "store").string();
  std::ostringstream sink;
  (void)exp::run_experiment(benchmark_spec(), sink, options);
  const auto reloaded = ExperimentSpec::load((dir / "store" / "spec.json").string());
  reloaded.validate();
  EXPECT_EQ(reloaded.name, benchmark_spec().name);
  // The frozen spec re-enumerates to the same plan hash.
  EXPECT_EQ(exp::plan_hash_hex(reloaded, exp::enumerate_cells(reloaded)),
            exp::plan_hash_hex(benchmark_spec(), exp::enumerate_cells(benchmark_spec())));
}

TEST(ScheduleModeThreads, RegressionThreadsAreNoLongerIgnored) {
  // ExperimentSpec::threads used to be silently ignored in schedule mode
  // (the scheduler loop ran inline on the caller thread). The cell executor
  // now drives schedule cells through the worker pool: with an explicit
  // pool, at least one lane job must reach it, and the results must stay
  // bit-identical to the serial run.
  ExperimentSpec spec = schedule_spec();
  std::ostringstream sink;

  ThreadPool pool(2);
  const std::size_t jobs_before = pool.jobs_completed();
  RunOptions options;
  options.pool = &pool;
  const auto pooled = exp::run_experiment(spec, sink, options);
  EXPECT_GT(pool.jobs_completed(), jobs_before)
      << "schedule-mode cells never reached the worker pool";

  spec.parallel = false;
  const auto serial = exp::run_experiment(spec, sink);
  ASSERT_EQ(pooled.schedules.size(), serial.schedules.size());
  for (std::size_t i = 0; i < pooled.schedules.size(); ++i) {
    EXPECT_EQ(pooled.schedules[i].scheduler, serial.schedules[i].scheduler);
    EXPECT_EQ(pooled.schedules[i].makespan, serial.schedules[i].makespan);
  }

  // spec.threads now routes schedule mode onto a local pool as well —
  // results identical again.
  spec.parallel = true;
  spec.threads = 3;
  const auto threaded = exp::run_experiment(spec, sink);
  for (std::size_t i = 0; i < threaded.schedules.size(); ++i) {
    EXPECT_EQ(threaded.schedules[i].makespan, serial.schedules[i].makespan);
  }
}

TEST(RunOptionsValidation, RejectsInvalidShardAndSinklessPartialRuns) {
  const ExperimentSpec spec = benchmark_spec();
  std::ostringstream sink;
  RunOptions bad;
  bad.shard_index = 0;
  EXPECT_THROW((void)exp::run_experiment(spec, sink, bad), std::invalid_argument);
  bad.shard_index = 3;
  bad.shard_count = 2;
  EXPECT_THROW((void)exp::run_experiment(spec, sink, bad), std::invalid_argument);
  RunOptions sinkless;
  sinkless.shard_index = 1;
  sinkless.shard_count = 2;  // no out_dir
  EXPECT_THROW((void)exp::run_experiment(spec, sink, sinkless), std::invalid_argument);
  RunOptions resume_only;
  resume_only.resume = true;  // no out_dir
  EXPECT_THROW((void)exp::run_experiment(spec, sink, resume_only), std::invalid_argument);
}

}  // namespace
