// The simulator's determinism contract: a simulation is a pure function of
// (scenario, seed). Pins, in increasing scope:
//
//   - repeated runs produce byte-identical event traces (and hashes),
//   - every scheduler in a roster faces the identical workload stream,
//   - simulate-mode experiments emit byte-identical CSV/JSON artifacts
//     regardless of thread count, shard decomposition (1..4), or an
//     interrupt-and-resume cycle — the PR-5 executor contract extended to
//     the discrete-event mode,
//   - per-cell stored payloads are identical across decompositions,
//   - 25 fuzzed scenarios (random arrivals, paired crash/recover faults,
//     slowdown windows, jitter, weight noise) replay identically and
//     round-trip through their JSON grammar.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "exp/experiment.hpp"
#include "exp/json.hpp"
#include "exp/resultstore.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"

namespace {

namespace fs = std::filesystem;
using namespace saga;
using exp::ExperimentSpec;
using exp::Mode;
using exp::RunOptions;
using sim::Event;

/// Fresh scratch directory under the test temp dir.
fs::path scratch(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("sim_determinism_" + name);
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

/// A small but fully-loaded scenario: Poisson arrivals, a crash/recover
/// pair, a slowdown window, global + per-link jitter, and weight noise.
sim::Scenario tiny_scenario() {
  sim::Scenario s;
  s.dataset = "chains?chains=2&length=3&nodes=3";
  s.arrivals.kind = sim::ArrivalProcess::Kind::kPoisson;
  s.arrivals.rate = 0.8;
  s.arrivals.jobs = 5;
  {
    sim::FaultEvent crash;
    crash.kind = sim::FaultEvent::Kind::kCrash;
    crash.node = 1;
    crash.at = 2.0;
    s.faults.push_back(crash);
    sim::FaultEvent recover;
    recover.kind = sim::FaultEvent::Kind::kRecover;
    recover.node = 1;
    recover.at = 3.5;
    s.faults.push_back(recover);
    sim::FaultEvent slow;
    slow.kind = sim::FaultEvent::Kind::kSlowdown;
    slow.node = 0;
    slow.at = 1.0;
    slow.until = 2.0;
    slow.factor = 2.0;
    s.faults.push_back(slow);
  }
  {
    sim::JitterEvent global;
    global.at = 0.0;
    global.factor = 1.1;
    s.jitter.push_back(global);
    sim::JitterEvent link;
    link.at = 1.0;
    link.has_link = true;
    link.a = 0;
    link.b = 2;
    link.factor = 1.5;
    s.jitter.push_back(link);
  }
  s.noise_cv = 0.1;
  return s;
}

ExperimentSpec simulate_spec() {
  ExperimentSpec spec;
  spec.name = "equivalence-simulate";
  spec.mode = Mode::kSimulate;
  spec.schedulers = {"HEFT", "CPoP", "MinMin", "Online?policy=eft"};
  spec.scenario = tiny_scenario();
  spec.seed = 42;
  return spec;
}

struct Artifacts {
  std::string csv;
  std::string json;
};

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

Artifacts merge_to_artifacts(const std::vector<fs::path>& stores, const fs::path& dir) {
  fs::create_directories(dir);
  auto merged = exp::merge_stores(stores);
  merged.spec.csv = (dir / "merged.csv").string();
  merged.spec.json = (dir / "merged.json").string();
  std::ostringstream sink;
  exp::emit_result(merged.spec, merged.result, sink);
  return {slurp(dir / "merged.csv"), slurp(dir / "merged.json")};
}

/// The lines of a rendered trace that start with `prefix`.
std::vector<std::string> trace_lines_with(const std::string& rendered,
                                          const std::string& prefix) {
  std::vector<std::string> lines;
  std::istringstream in(rendered);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) lines.push_back(line);
  }
  return lines;
}

// ---- Trace-level determinism ------------------------------------------

TEST(SimDeterminism, RepeatedRunsProduceByteIdenticalTraces) {
  const sim::Scenario scenario = tiny_scenario();
  const auto scheduler = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  std::vector<Event> first_trace;
  std::vector<Event> second_trace;
  const sim::SimReport first =
      sim::simulate_scenario(scenario, *scheduler, 42, nullptr, &first_trace);
  const sim::SimReport second =
      sim::simulate_scenario(scenario, *scheduler, 42, nullptr, &second_trace);

  EXPECT_EQ(sim::trace_to_string(first_trace), sim::trace_to_string(second_trace));
  EXPECT_EQ(first.trace_hash, second.trace_hash);
  EXPECT_EQ(first.trace_events, second.trace_events);
  EXPECT_EQ(first.makespan, second.makespan);  // bitwise, not approximate
  EXPECT_EQ(first.response.mean, second.response.mean);
  EXPECT_EQ(first.utilization, second.utilization);
  EXPECT_EQ(first.completed_jobs, first.jobs);
}

// Workload streams derive from the experiment seed alone, so every
// scheduler in a roster sees the same arrivals (fairness of comparison).
TEST(SimDeterminism, EverySchedulerFacesTheIdenticalWorkload) {
  const auto& registry = SchedulerRegistry::instance();
  const sim::Scenario scenario = tiny_scenario();
  std::vector<Event> heft_trace;
  std::vector<Event> minmin_trace;
  const auto heft = registry.make("HEFT", kDefaultSchedulerSeed);
  const auto minmin = registry.make("MinMin", kDefaultSchedulerSeed);
  (void)sim::simulate_scenario(scenario, *heft, 42, nullptr, &heft_trace);
  (void)sim::simulate_scenario(scenario, *minmin, 42, nullptr, &minmin_trace);

  const auto heft_arrivals =
      trace_lines_with(sim::trace_to_string(heft_trace), "job-arrival");
  const auto minmin_arrivals =
      trace_lines_with(sim::trace_to_string(minmin_trace), "job-arrival");
  EXPECT_EQ(heft_arrivals, minmin_arrivals);
  EXPECT_EQ(heft_arrivals.size(), scenario.arrivals.jobs);

  const std::vector<double> times = sim::arrival_times(scenario, 42);
  ASSERT_EQ(times.size(), scenario.arrivals.jobs);
  for (std::size_t j = 1; j < times.size(); ++j) EXPECT_GE(times[j], times[j - 1]);
}

TEST(SimDeterminism, TheSeedOwnsTheWorkload) {
  const sim::Scenario scenario = tiny_scenario();
  EXPECT_NE(sim::arrival_times(scenario, 1), sim::arrival_times(scenario, 2));
  EXPECT_EQ(sim::arrival_times(scenario, 7), sim::arrival_times(scenario, 7));

  // Trace arrivals are verbatim, seed-independent.
  sim::Scenario traced = scenario;
  traced.arrivals.kind = sim::ArrivalProcess::Kind::kTrace;
  traced.arrivals.times = {0.0, 1.5, 3.0};
  EXPECT_EQ(sim::arrival_times(traced, 1), traced.arrivals.times);
  EXPECT_EQ(sim::arrival_times(traced, 2), traced.arrivals.times);
}

// ---- Executor-level determinism ---------------------------------------

TEST(SimDeterminism, ThreadCountLeavesArtifactsByteIdentical) {
  const fs::path dir = scratch("threads");
  const Artifacts golden = run_monolithic(simulate_spec(), dir / "golden");

  for (std::size_t threads = 1; threads <= 4; ++threads) {
    ExperimentSpec spec = simulate_spec();
    spec.threads = threads;
    const Artifacts got =
        run_monolithic(spec, dir / ("t" + std::to_string(threads)));
    EXPECT_EQ(got.csv, golden.csv) << threads << " threads";
    EXPECT_EQ(got.json, golden.json) << threads << " threads";
  }
  ExperimentSpec sequential = simulate_spec();
  sequential.parallel = false;
  const Artifacts got = run_monolithic(sequential, dir / "sequential");
  EXPECT_EQ(got.csv, golden.csv);
  EXPECT_EQ(got.json, golden.json);
}

TEST(SimDeterminism, MergeOfAnyShardCountMatchesMonolithicByteForByte) {
  const fs::path dir = scratch("shards");
  const Artifacts golden = run_monolithic(simulate_spec(), dir / "mono");

  for (std::size_t shards = 1; shards <= 4; ++shards) {
    const fs::path shard_dir = dir / ("n" + std::to_string(shards));
    const auto stores = run_shards(simulate_spec(), shard_dir, shards);
    const Artifacts merged = merge_to_artifacts(stores, shard_dir);
    EXPECT_EQ(merged.csv, golden.csv) << shards << " shards";
    EXPECT_EQ(merged.json, golden.json) << shards << " shards";
  }
}

TEST(SimDeterminism, InterruptedRunResumesToTheMonolithicArtifacts) {
  const fs::path dir = scratch("resume");
  const Artifacts golden = run_monolithic(simulate_spec(), dir / "mono");

  // "Interrupt" by running only shard 1/2 into the store, then resume the
  // full grid against the same store.
  const fs::path store_dir = dir / "store";
  {
    RunOptions options;
    options.shard_index = 1;
    options.shard_count = 2;
    options.out_dir = store_dir.string();
    std::ostringstream sink;
    const auto partial = exp::run_experiment(simulate_spec(), sink, options);
    EXPECT_FALSE(partial.stats.complete);
  }
  ExperimentSpec spec = simulate_spec();
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
  EXPECT_EQ(slurp(dir / "resumed.csv"), golden.csv);
  EXPECT_EQ(slurp(dir / "resumed.json"), golden.json);
}

/// Cell-index -> payload dump for every record in a set of stores. Records
/// carry wall-clock fields, so equivalence is defined over the payloads —
/// exactly what merge/resume reuse.
std::map<std::size_t, std::string> payloads_of(const std::vector<fs::path>& stores) {
  std::map<std::size_t, std::string> payloads;
  for (const fs::path& store : stores) {
    const fs::path cells = store / "cells";
    if (!fs::exists(cells)) continue;
    for (const auto& entry : fs::directory_iterator(cells)) {
      const exp::Json record = exp::Json::parse(slurp(entry.path()));
      const std::size_t index =
          static_cast<std::size_t>(record.find("cell")->as_number());
      const bool fresh =
          payloads.emplace(index, record.find("payload")->dump()).second;
      EXPECT_TRUE(fresh) << "duplicate cell " << index;
    }
  }
  return payloads;
}

TEST(SimDeterminism, StoredPayloadsAreIdenticalAcrossDecompositions) {
  const fs::path dir = scratch("payloads");
  RunOptions options;
  options.out_dir = (dir / "mono_store").string();
  std::ostringstream sink;
  const auto result = exp::run_experiment(simulate_spec(), sink, options);
  EXPECT_TRUE(result.stats.complete);

  const auto mono = payloads_of({fs::path(options.out_dir)});
  EXPECT_EQ(mono.size(), simulate_spec().schedulers.size());
  const auto sharded = payloads_of(run_shards(simulate_spec(), dir / "sharded", 3));
  EXPECT_EQ(mono, sharded);
}

// ---- Fuzzed scenarios --------------------------------------------------

sim::Scenario random_scenario(Rng& rng) {
  const int nodes = static_cast<int>(rng.uniform_int(2, 3));
  sim::Scenario s;
  s.dataset = "chains?chains=" + std::to_string(rng.uniform_int(1, 2)) +
              "&length=" + std::to_string(rng.uniform_int(1, 3)) +
              "&nodes=" + std::to_string(nodes);
  if (rng.uniform() < 0.5) {
    s.arrivals.kind = sim::ArrivalProcess::Kind::kPoisson;
    s.arrivals.rate = 0.25 + 1.75 * rng.uniform();
    s.arrivals.jobs = static_cast<std::size_t>(rng.uniform_int(1, 4));
  } else {
    s.arrivals.kind = sim::ArrivalProcess::Kind::kTrace;
    double t = 0.0;
    const int jobs = static_cast<int>(rng.uniform_int(1, 4));
    for (int j = 0; j < jobs; ++j) {
      t += 2.0 * rng.uniform();
      s.arrivals.times.push_back(t);
    }
  }
  if (rng.uniform() < 0.7) {
    // Always pair a crash with a recovery so every job can finish.
    const auto node = static_cast<std::size_t>(rng.uniform_int(0, nodes - 1));
    const double at = 3.0 * rng.uniform();
    sim::FaultEvent crash;
    crash.kind = sim::FaultEvent::Kind::kCrash;
    crash.node = node;
    crash.at = at;
    s.faults.push_back(crash);
    sim::FaultEvent recover;
    recover.kind = sim::FaultEvent::Kind::kRecover;
    recover.node = node;
    recover.at = at + 0.5 + 2.0 * rng.uniform();
    s.faults.push_back(recover);
  }
  if (rng.uniform() < 0.5) {
    sim::FaultEvent slow;
    slow.kind = sim::FaultEvent::Kind::kSlowdown;
    slow.node = static_cast<std::size_t>(rng.uniform_int(0, nodes - 1));
    slow.at = 4.0 * rng.uniform();
    slow.until = slow.at + 0.5 + 2.0 * rng.uniform();
    slow.factor = 1.0 + 2.0 * rng.uniform();
    s.faults.push_back(slow);
  }
  const int jitter_events = static_cast<int>(rng.uniform_int(0, 2));
  for (int i = 0; i < jitter_events; ++i) {
    sim::JitterEvent j;
    j.at = 5.0 * rng.uniform();
    j.factor = 0.5 + 2.0 * rng.uniform();
    if (rng.uniform() < 0.5) {
      j.has_link = true;
      j.a = 0;
      j.b = 1 + static_cast<std::size_t>(rng.uniform_int(0, nodes - 2));
    }
    s.jitter.push_back(j);
  }
  if (rng.uniform() < 0.5) s.noise_cv = 0.2;
  return s;
}

TEST(SimDeterminism, FuzzedScenariosReplayIdenticallyAndRoundTrip) {
  Rng rng(20260808);
  const auto scheduler = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  for (int round = 0; round < 25; ++round) {
    const sim::Scenario scenario = random_scenario(rng);
    ASSERT_NO_THROW(scenario.validate()) << "round " << round;
    const auto seed = static_cast<std::uint64_t>(rng.uniform_int(0, 1000));

    std::vector<Event> first_trace;
    std::vector<Event> second_trace;
    const sim::SimReport first =
        sim::simulate_scenario(scenario, *scheduler, seed, nullptr, &first_trace);
    const sim::SimReport second =
        sim::simulate_scenario(scenario, *scheduler, seed, nullptr, &second_trace);
    ASSERT_EQ(sim::trace_to_string(first_trace), sim::trace_to_string(second_trace))
        << "round " << round;
    EXPECT_EQ(first.trace_hash, second.trace_hash);
    EXPECT_EQ(first.makespan, second.makespan);
    // Every crash is paired with a recovery, so no job is stranded.
    EXPECT_EQ(first.completed_jobs, first.jobs) << "round " << round;

    // The scenario grammar round-trips losslessly.
    const exp::Json encoded = scenario.to_json();
    EXPECT_EQ(sim::Scenario::from_json(encoded).to_json().dump(), encoded.dump())
        << "round " << round;
  }
}

}  // namespace
