/// compare_schedulers — the traditional benchmarking workflow (Section V)
/// as a command-line tool.
///
/// Usage: compare_schedulers [dataset] [instances] [seed]
///   dataset    one of the 16 Table II datasets (default: chains)
///   instances  number of instances to generate (default: 50)
///   seed       master seed (default: 42)
///
/// Runs all 15 polynomial-time schedulers on the dataset and prints each
/// scheduler's makespan-ratio distribution plus the Fig. 2-style max-ratio
/// row for the dataset.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/benchmarking.hpp"
#include "analysis/ratio_matrix.hpp"
#include "common/stats.hpp"
#include "datasets/registry.hpp"
#include "sched/registry.hpp"

int main(int argc, char** argv) {
  using namespace saga;
  const std::string dataset_name = argc > 1 ? argv[1] : "chains";
  const std::size_t instances = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 50;
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 42;

  std::printf("dataset=%s instances=%zu seed=%llu\n", dataset_name.c_str(), instances,
              static_cast<unsigned long long>(seed));
  const auto& registry = datasets::DatasetRegistry::instance();
  std::printf("available datasets:");
  for (const auto& name : registry.names("table2")) std::printf(" %s", name.c_str());
  std::printf("\n\n");

  const auto roster =
      SchedulerRegistry::instance().names("benchmark", NameOrder::kLexicographic);
  const auto source = registry.make(dataset_name, seed);
  const auto benchmark =
      analysis::benchmark_source(*source, dataset_name, instances, roster, seed);

  std::printf("%-12s %s\n", "scheduler", "makespan ratio distribution");
  for (const auto& sb : benchmark.per_scheduler) {
    std::printf("%-12s %s\n", sb.scheduler.c_str(), to_string(sb.summary).c_str());
  }

  const auto table =
      analysis::benchmarking_table({benchmark}, roster, "max makespan ratio (Fig. 2 row)");
  std::printf("\n%s", table.render().c_str());
  return 0;
}
