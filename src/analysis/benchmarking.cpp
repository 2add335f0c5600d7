#include "analysis/benchmarking.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "datasets/source.hpp"
#include "sched/arena.hpp"
#include "sched/registry.hpp"

namespace saga::analysis {

const SchedulerBenchmark& DatasetBenchmark::for_scheduler(const std::string& name) const {
  for (const auto& sb : per_scheduler) {
    if (sb.scheduler == name) return sb;
  }
  throw std::out_of_range("scheduler not in benchmark: " + name);
}

DatasetBenchmark assemble_benchmark(std::string label,
                                    const std::vector<std::vector<double>>& makespans,
                                    const std::vector<std::string>& scheduler_names) {
  const std::size_t n_schedulers = scheduler_names.size();
  const std::size_t n_instances = n_schedulers == 0 ? 0 : makespans.front().size();
  DatasetBenchmark result;
  result.dataset = std::move(label);
  result.per_scheduler.resize(n_schedulers);
  for (std::size_t i = 0; i < n_instances; ++i) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < n_schedulers; ++s) best = std::min(best, makespans[s][i]);
    for (std::size_t s = 0; s < n_schedulers; ++s) {
      const double m = makespans[s][i];
      const double ratio = best == 0.0 ? (m == 0.0 ? 1.0 : std::numeric_limits<double>::infinity())
                                       : m / best;
      result.per_scheduler[s].ratios.push_back(ratio);
    }
  }
  for (std::size_t s = 0; s < n_schedulers; ++s) {
    result.per_scheduler[s].scheduler = scheduler_names[s];
    result.per_scheduler[s].summary = saga::summarize(result.per_scheduler[s].ratios);
  }
  return result;
}

DatasetBenchmark benchmark_source(const saga::datasets::InstanceSource& source,
                                  std::string label, std::size_t count,
                                  const std::vector<std::string>& scheduler_names,
                                  std::uint64_t seed, saga::ThreadPool* pool) {
  const std::size_t n_schedulers = scheduler_names.size();
  const auto& registry = saga::SchedulerRegistry::instance();

  // makespans[s][i]: scheduler s on instance i.
  std::vector<std::vector<double>> makespans(n_schedulers, std::vector<double>(count, 0.0));

  (pool != nullptr ? *pool : saga::global_pool()).parallel_for(count, [&](std::size_t i) {
    const saga::ProblemInstance inst = source.generate(i);
    thread_local saga::TimelineArena arena;
    for (std::size_t s = 0; s < n_schedulers; ++s) {
      const auto scheduler =
          registry.make(scheduler_names[s], saga::derive_seed(seed, {0xbe5cULL, s, i}));
      makespans[s][i] = scheduler->plan_makespan(inst, &arena);
    }
  });

  return assemble_benchmark(std::move(label), makespans, scheduler_names);
}

}  // namespace saga::analysis
