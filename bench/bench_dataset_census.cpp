/// Dataset census — structural characterisation of the 16 datasets
/// (context for Fig. 2: the structural knobs that explain per-dataset
/// scheduler behaviour; Section IV-B describes the generators, this bench
/// verifies their realised shapes).
///
/// For each dataset, prints the mean of each structural statistic across
/// instances (tasks, depth, width, available parallelism, fan-in, CCR) and
/// the network profile (nodes, speed heterogeneity).

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "datasets/registry.hpp"
#include "graph/graph_stats.hpp"

int main() {
  using namespace saga;
  bench::banner("bench_dataset_census", "Table II / Section IV-B dataset shapes");
  bench::ScopedTimer timer("census total");

  std::printf("\n%-12s %7s %7s %7s %7s %9s %7s %7s %9s %9s\n", "dataset", "tasks", "deps",
              "depth", "width", "parallel", "fan_in", "nodes", "speed_cv", "ccr");
  for (const auto& name : datasets::DatasetRegistry::instance().names("table2")) {
    const auto source = datasets::DatasetRegistry::instance().make(name, env_seed());
    const std::size_t count = scaled_count(std::min<std::size_t>(source->size(), 100), 8);
    std::vector<double> tasks, deps, depth, width, parallelism, fan_in, nodes, speed_cv, ccr;
    for (std::size_t i = 0; i < count; ++i) {
      const auto inst = source->generate(i);
      const auto gs = compute_graph_stats(inst.graph);
      tasks.push_back(static_cast<double>(gs.tasks));
      deps.push_back(static_cast<double>(gs.dependencies));
      depth.push_back(static_cast<double>(gs.depth));
      width.push_back(static_cast<double>(gs.level_width));
      parallelism.push_back(gs.parallelism);
      fan_in.push_back(gs.mean_fan_in);
      nodes.push_back(static_cast<double>(inst.network.node_count()));
      std::vector<double> speeds;
      for (NodeId v = 0; v < inst.network.node_count(); ++v) {
        speeds.push_back(inst.network.speed(v));
      }
      const double m = mean(speeds);
      speed_cv.push_back(m > 0.0 ? stddev(speeds) / m : 0.0);
      ccr.push_back(inst.ccr());
    }
    std::printf("%-12s %7.1f %7.1f %7.1f %7.1f %9.2f %7.2f %7.1f %9.2f %9.2f\n",
                name.c_str(), mean(tasks), mean(deps), mean(depth), mean(width),
                mean(parallelism), mean(fan_in), mean(nodes), mean(speed_cv), mean(ccr));
  }
  std::printf("\n(parallel = total work / longest cost chain; speed_cv = stddev/mean of node "
              "speeds; ccr = 0 where links are infinite)\n");
  return 0;
}
