#include "datasets/erdos.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "datasets/dataset.hpp"
#include "datasets/registry.hpp"

namespace saga::datasets {

namespace {

double weight(Rng& rng) { return rng.clipped_gaussian(1.0, 1.0 / 3.0, 0.0, 2.0); }

double net_weight(Rng& rng) { return std::max(weight(rng), kMinNetworkWeight); }

/// Log-uniform factor in [1/h, h]; 1 when the network is homogeneous.
double hetero_factor(Rng& rng, double h) {
  if (h <= 1.0) return 1.0;
  return std::exp(rng.uniform(-std::log(h), std::log(h)));
}

}  // namespace

saga::ProblemInstance erdos_instance(std::uint64_t seed, const ErdosTuning& tuning) {
  Rng rng(seed);
  saga::ProblemInstance inst;
  auto& g = inst.graph;
  const auto n = tuning.n;
  for (std::int64_t i = 0; i < n; ++i) (void)g.add_task(weight(rng));
  // Forward edges (i < j), each pair drawn once: none can duplicate an edge
  // or close a cycle, so the checked insert's probes are skipped.
  for (std::int64_t j = 1; j < n; ++j) {
    for (std::int64_t i = 0; i < j; ++i) {
      if (!rng.bernoulli(tuning.p)) continue;
      g.add_dependency_unchecked(static_cast<TaskId>(i), static_cast<TaskId>(j), weight(rng));
    }
  }

  Rng net_rng(derive_seed(seed, {0x4e4554ULL}));  // "NET"
  const auto nodes = tuning.nodes > 0 ? static_cast<std::size_t>(tuning.nodes)
                                      : static_cast<std::size_t>(net_rng.uniform_int(4, 8));
  inst.network = Network(nodes);
  for (NodeId v = 0; v < nodes; ++v) {
    inst.network.set_speed(v, net_weight(net_rng) * hetero_factor(net_rng, tuning.hetero));
  }
  for (NodeId a = 0; a < nodes; ++a) {
    for (NodeId b = a + 1; b < nodes; ++b) {
      inst.network.set_strength(a, b,
                                net_weight(net_rng) * hetero_factor(net_rng, tuning.hetero));
    }
  }
  return inst;
}

void register_erdos_dataset(DatasetRegistry& registry) {
  DatasetDesc desc;
  desc.name = "erdos";
  desc.aliases = {"erdos_renyi", "gnp"};
  desc.summary =
      "Erdős–Rényi random DAGs: n tasks, forward edges with probability p, complete "
      "network with tunable heterogeneity";
  desc.tags = {"random", "extension"};
  desc.params = {
      {"n", "tasks: integer in [1, 100000] (default 32)"},
      {"p", "forward-edge probability: number in [0, 1] (default 0.1)"},
      {"hetero", "network heterogeneity factor: number >= 1 (default 1, homogeneous)"},
      {"nodes", "network nodes: integer in [1, 10000] (default: uniform 4-8)"},
  };
  desc.factory = [](const DatasetParams& params,
                    std::uint64_t master_seed) -> InstanceSourcePtr {
    ErdosTuning tuning;
    tuning.n = params.get_i64("n", tuning.n);
    tuning.p = params.get_double("p", tuning.p);
    tuning.hetero = params.get_double("hetero", tuning.hetero);
    tuning.nodes = params.get_i64("nodes", 0);
    check_param_range("erdos", "n", tuning.n, 1, 100000, /*zero_is_default=*/false);
    check_param_range("erdos", "nodes", tuning.nodes, 1, 10000);
    if (!(tuning.p >= 0.0 && tuning.p <= 1.0)) {
      throw std::invalid_argument("dataset 'erdos' parameter 'p' must lie in [0, 1]");
    }
    if (!(tuning.hetero >= 1.0) || !std::isfinite(tuning.hetero)) {
      throw std::invalid_argument("dataset 'erdos' parameter 'hetero' must be >= 1");
    }
    return std::make_unique<GeneratorSource>(
        "erdos", 1000, master_seed,
        [tuning](std::uint64_t seed) { return erdos_instance(seed, tuning); });
  };
  registry.add(std::move(desc));
}

}  // namespace saga::datasets
