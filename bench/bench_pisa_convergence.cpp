/// PISA convergence curves — how Algorithm 1's best-found ratio evolves
/// over iterations (context for the paper's Section VI parameter choices:
/// Tmax=10, Tmin=0.1, alpha=0.99 stop the walk after ~459 iterations; this
/// bench shows whether the search has saturated by then).
///
/// For three scheduler pairs, prints best-ratio-so-far at checkpoints for
/// both acceptance rules, averaged over restarts.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "core/annealer.hpp"
#include "core/constraints.hpp"
#include "sched/registry.hpp"

namespace {

using namespace saga;

/// Mean best-ratio trajectory across restarts, sampled at checkpoints.
std::vector<double> mean_trajectory(const std::string& target_name,
                                    const std::string& baseline_name,
                                    pisa::AnnealingParams params,
                                    const std::vector<std::size_t>& checkpoints,
                                    std::size_t restarts, std::uint64_t seed) {
  params.record_trace = true;
  params.max_iterations = checkpoints.back() + 1;
  params.t_min = 1e-12;  // let iteration count bind so late checkpoints exist
  params.alpha = 0.995;

  const auto& registry = SchedulerRegistry::instance();
  const auto target = registry.make(target_name, derive_seed(seed, {1}));
  const auto baseline = registry.make(baseline_name, derive_seed(seed, {2}));
  const auto reqs = pisa::combine(target->requirements(), baseline->requirements());
  pisa::PerturbationConfig config;
  pisa::apply_requirements(config, reqs);

  std::vector<double> totals(checkpoints.size(), 0.0);
  for (std::size_t run = 0; run < restarts; ++run) {
    auto initial = pisa::random_chain_instance(derive_seed(seed, {3, run}));
    pisa::normalize_instance(initial, reqs);
    const auto result =
        pisa::anneal(*target, *baseline, initial, config, params, derive_seed(seed, {4, run}));
    for (std::size_t c = 0; c < checkpoints.size(); ++c) {
      const std::size_t at = std::min(checkpoints[c], result.trace.size() - 1);
      totals[c] += result.trace[at].best_ratio;
    }
  }
  for (double& t : totals) t /= static_cast<double>(restarts);
  return totals;
}

}  // namespace

int main() {
  bench::banner("bench_pisa_convergence", "Section VI annealing-schedule context");
  bench::ScopedTimer timer("convergence total");
  const std::vector<std::size_t> checkpoints = {9, 49, 99, 199, 459, 999, 1999};
  const std::size_t restarts = saga::scaled_count(20, 10);

  std::printf("\nmean best-ratio-so-far at iteration checkpoints (%zu restarts):\n", restarts);
  std::printf("%-24s %-10s", "pair", "rule");
  for (std::size_t c : checkpoints) std::printf(" %7zu", c + 1);
  std::printf("\n");
  for (const auto& [target, baseline] :
       std::vector<std::pair<const char*, const char*>>{
           {"HEFT", "FastestNode"}, {"HEFT", "CPoP"}, {"MinMin", "MaxMin"}}) {
    for (const auto rule : {saga::pisa::AnnealingParams::AcceptanceRule::kPaper,
                            saga::pisa::AnnealingParams::AcceptanceRule::kMetropolis}) {
      saga::pisa::AnnealingParams params;
      params.acceptance = rule;
      const auto curve = mean_trajectory(target, baseline, params, checkpoints, restarts,
                                         saga::env_seed());
      std::printf("%-24s %-10s",
                  (std::string(target) + " vs " + baseline).c_str(),
                  rule == saga::pisa::AnnealingParams::AcceptanceRule::kPaper ? "paper"
                                                                              : "metropolis");
      for (double v : curve) std::printf(" %7.3f", v);
      std::printf("\n");
    }
  }
  std::printf("\n(the paper's schedule stops at iteration ~459; saturation before that "
              "column means the budget suffices)\n");
  return 0;
}
