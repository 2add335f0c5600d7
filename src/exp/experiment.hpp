#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/benchmarking.hpp"
#include "core/annealer.hpp"
#include "core/pairwise.hpp"
#include "exp/json.hpp"
#include "sched/schedule.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"

/// \file experiment.hpp
/// The declarative experiment layer: an ExperimentSpec describes a whole
/// scenario — mode, scheduler roster (spec strings or @tag expansions),
/// dataset selection, PISA settings, seed, output sinks — and round-trips
/// to/from a JSON file, so the paper's result matrix (and any scenario
/// beyond it) is data rather than recompiled C++. `run_experiment()` is the
/// single driver behind `saga run`, `saga compare`, `saga pisa` and the
/// Fig. 2 / Fig. 4 bench binaries; it executes on the shared evaluation
/// kernel (per-worker TimelineArena) and is bit-reproducible for a given
/// spec regardless of thread count.

namespace saga::exp {

enum class Mode {
  kBenchmark,     // Fig. 2: every scheduler on every instance of each dataset
  kPisaPairwise,  // Fig. 4: worst-case ratio for every ordered scheduler pair
  kSchedule,      // one instance, makespans side by side
  kSimulate,      // discrete-event simulation of a dynamic-workload scenario
};

[[nodiscard]] std::string_view to_string(Mode mode);
/// Throws std::invalid_argument listing the valid modes for unknown input.
[[nodiscard]] Mode mode_from_string(std::string_view text);

/// One dataset to benchmark. `name` is a dataset spec string resolved by
/// the DatasetRegistry (`montage`, `montage?n=200&ccr=0.5`,
/// `perturbed?base=blast&level=0.3`, see docs/datasets.md). count 0 means
/// the source's natural instance count (the paper's Table II count for
/// registry datasets) scaled by SAGA_SCALE with a floor of 8, matching the
/// Fig. 2 driver.
struct DatasetSelection {
  std::string name;
  std::size_t count = 0;
};

/// The instance a schedule-mode experiment runs on: either (dataset spec
/// string, index) for a generated instance, or a serialized-instance file
/// ("-" = stdin).
struct InstanceRef {
  std::string dataset;
  std::size_t index = 0;
  std::string file;

  [[nodiscard]] bool empty() const { return dataset.empty() && file.empty(); }
};

/// PISA annealing settings (defaults are the paper's Section VI values).
struct PisaSettings {
  std::size_t restarts = 5;
  std::size_t max_iterations = 1000;
  double t_max = 10.0;
  double t_min = 0.1;
  double alpha = 0.99;
  std::string acceptance = "paper";  // "paper" | "metropolis"

  [[nodiscard]] pisa::PisaOptions to_options() const;
};

struct ExperimentSpec {
  std::string name;                        // experiment label (table titles)
  Mode mode = Mode::kBenchmark;
  std::vector<std::string> schedulers;     // spec strings; "@tag" expands to
                                           // the registry roster (sorted)
  std::vector<DatasetSelection> datasets;  // benchmark mode
  InstanceRef instance;                    // schedule mode
  PisaSettings pisa;                       // pisa-pairwise mode
  sim::Scenario scenario;                  // simulate mode
  std::uint64_t seed = 42;
  bool parallel = true;
  std::size_t threads = 0;                 // worker threads; 0 = global pool
  std::string csv;                         // optional CSV sink path
  std::string json;                        // optional JSON result sink path
  std::string atlas;                       // optional atlas dir (pisa mode):
                                           // adversarial instances as entries

  /// JSON round-trip. from_json rejects unknown keys at every level (with a
  /// nearest-key suggestion), duplicate keys are rejected by the parser.
  [[nodiscard]] static ExperimentSpec from_json(const Json& json);
  [[nodiscard]] Json to_json() const;

  /// Loads and parses a spec file ("-" = stdin).
  [[nodiscard]] static ExperimentSpec load(const std::string& path);

  /// Expands @tag entries against the registry (byte-wise sorted, so
  /// "@benchmark" reproduces the historical benchmarking roster order).
  [[nodiscard]] std::vector<std::string> resolved_schedulers() const;

  /// Full validation: scheduler specs construct, datasets exist, mode
  /// requirements hold. Throws std::invalid_argument describing the first
  /// problem. `saga run --dry-run` stops here.
  void validate() const;
};

/// One schedule-mode row.
struct ScheduleOutcome {
  std::string scheduler;  // the spec string as given
  Schedule schedule;
  double makespan = 0.0;
};

/// One simulate-mode row: a scheduler's full dynamic-workload report.
struct SimOutcome {
  std::string scheduler;  // the spec string as given
  sim::SimReport report;
};

/// What a (possibly sharded or resumed) run actually did, cell by cell.
struct RunStats {
  std::size_t total_cells = 0;  // full grid size for the spec
  std::size_t executed = 0;     // cells computed by this run
  std::size_t reused = 0;       // cells loaded from the result store (--resume)
  std::size_t torn = 0;         // torn store records whose cell no valid
                                // record covers (re-run when owned by this
                                // shard)
  bool complete = false;        // every cell present -> artifacts emitted
};

struct ExperimentResult {
  std::vector<analysis::DatasetBenchmark> benchmarks;  // benchmark mode
  pisa::PairwiseResult pairwise;                       // pisa-pairwise mode
  std::vector<ScheduleOutcome> schedules;              // schedule mode
  std::vector<SimOutcome> sims;                        // simulate mode
  ProblemInstance instance;                            // schedule-mode input
  RunStats stats;
};

/// Execution options for run_experiment: shard selection, result-store
/// persistence, crash resume. The defaults reproduce the historical
/// monolithic in-process run.
struct RunOptions {
  /// 1-based shard selector: shard i of N owns the cells whose global index
  /// is congruent to i-1 mod N (round-robin, so heterogeneous cells spread
  /// evenly). N > 1 requires `out_dir` — a partial run is useless unless its
  /// cells are persisted for `saga merge`.
  std::size_t shard_index = 1;
  std::size_t shard_count = 1;
  /// Result-store directory: every completed cell is appended as a JSONL
  /// record to this run's segment (exp/resultstore.hpp). Empty = no store.
  std::string out_dir;
  /// Skip cells already completed in `out_dir`; torn (truncated) records are
  /// discarded and their cells re-run.
  bool resume = false;
  /// Worker pool override (tests / embedders). When set it wins over
  /// spec.parallel and spec.threads.
  ThreadPool* pool = nullptr;
};

/// Validates and runs the experiment, rendering result tables and progress
/// to `out` and the CSV sink when spec.csv is set.
ExperimentResult run_experiment(const ExperimentSpec& spec, std::ostream& out);

/// Sharded / persistent / resumable variant. Cells keep their global index
/// and derived seeds regardless of sharding, so any shard decomposition
/// (merged back with `saga merge` / merge_stores) is bit-identical to the
/// monolithic run. Artifacts (tables, csv/json/atlas sinks) are emitted only
/// when the run covers every cell.
ExperimentResult run_experiment(const ExperimentSpec& spec, std::ostream& out,
                                const RunOptions& options);

/// Renders result tables to `out` and writes the spec's csv/json/atlas
/// sinks. Shared by the monolithic path and `saga merge`, so merged shards
/// reproduce the monolithic artifacts byte for byte.
void emit_result(const ExperimentSpec& spec, const ExperimentResult& result, std::ostream& out);

/// Structured JSON rendering of a result (the `json` sink's content):
/// per-dataset ratio summaries, the pairwise ratio grid, or the schedule
/// makespans, plus the resolved roster. Non-finite numbers render as
/// strings ("inf", "nan") to stay within strict JSON.
[[nodiscard]] Json result_to_json(const ExperimentSpec& spec, const ExperimentResult& result);

/// Appends `seed=<derived>` to a randomized scheduler's spec string so a
/// stored artifact (atlas entry) reconstructs the exact scheduler a driver
/// ran; deterministic schedulers round-trip unchanged.
[[nodiscard]] std::string annotate_scheduler_seed(const std::string& spec_string,
                                                  std::uint64_t derived_seed);

/// Reads and parses a spec file ("-" = stdin) into its JSON document
/// without interpreting it, so callers can apply overrides before
/// ExperimentSpec::from_json.
[[nodiscard]] Json load_spec_document(const std::string& path);

/// Applies a `--set key.path=value` override to a spec document. The value
/// is parsed as JSON when possible ("3", "true", '["HEFT"]'), else taken as
/// a string; intermediate objects are created as needed.
void apply_override(Json& root, std::string_view assignment);

/// Human-readable dry-run summary of a validated spec: resolved rosters,
/// effective dataset counts, seeds and sinks.
[[nodiscard]] std::string describe(const ExperimentSpec& spec);

}  // namespace saga::exp
