#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "sched/scheduler.hpp"

/// \file benchmarking.hpp
/// The traditional benchmarking pipeline behind the paper's Fig. 2 (and the
/// "Benchmarking" rows of Figs. 10-19): run every scheduler on every
/// instance of a dataset and report makespan ratios
///   m(S_A) / min over all schedulers B of m(S_B).

namespace saga {
class ThreadPool;
}

namespace saga::datasets {
class InstanceSource;
}

namespace saga::analysis {

/// Makespan ratios of one scheduler across a dataset's instances.
struct SchedulerBenchmark {
  std::string scheduler;
  std::vector<double> ratios;  // one per instance, >= 1 by construction
  saga::Summary summary;       // of `ratios`
};

struct DatasetBenchmark {
  std::string dataset;
  std::vector<SchedulerBenchmark> per_scheduler;

  [[nodiscard]] const SchedulerBenchmark& for_scheduler(const std::string& name) const;
};

/// Assembly tail shared by benchmark_source and the result-store merge
/// path: turns a makespan matrix `makespans[s][i]` (scheduler s on
/// instance i) into per-scheduler ratios against the per-instance roster
/// minimum, plus summaries. Keeping this a single function is what makes a
/// merged shard decomposition bit-identical to the monolithic run.
[[nodiscard]] DatasetBenchmark assemble_benchmark(
    std::string label, const std::vector<std::vector<double>>& makespans,
    const std::vector<std::string>& scheduler_names);

/// Runs all `scheduler_names` (names or spec strings) on instances
/// 0..count-1 of `source`; the ratio baseline is the minimum makespan
/// across the same roster (the paper's convention). Workers pull their
/// instances on demand (InstanceSource::generate is pure and thread-safe),
/// so the dataset is never materialized. Parallel over instances;
/// deterministic regardless of thread count. `label` names the dataset in
/// the result (typically the selection's spec string). `pool` null means
/// the global pool.
[[nodiscard]] DatasetBenchmark benchmark_source(const saga::datasets::InstanceSource& source,
                                                std::string label, std::size_t count,
                                                const std::vector<std::string>& scheduler_names,
                                                std::uint64_t seed,
                                                saga::ThreadPool* pool = nullptr);

}  // namespace saga::analysis
