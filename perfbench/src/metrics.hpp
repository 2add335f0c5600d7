#pragma once

#include <string>
#include <vector>

/// \file metrics.hpp
/// The metric catalogue: every end-to-end metric (printed by an untraced
/// run) and every per-layer metric (printed by a traced run), with units.
/// BENCHMARK.json lists exactly these names; perfbench/README.md defines
/// each one. A per-layer metric a workload does not exercise is printed as
/// 0 and left out of the results file's "recorded" list.

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// The 15 `@benchmark` schedulers (per-scheduler layer metrics), the
/// serve request classes and the bench_grid dataset families.
[[nodiscard]] const std::vector<std::string>& benchmark_roster();
[[nodiscard]] const std::vector<std::string>& request_classes();
[[nodiscard]] const std::vector<std::string>& grid_families();

}  // namespace perfbench
