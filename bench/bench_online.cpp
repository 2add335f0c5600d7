/// Online scheduling study (paper future work: "online scheduling (e.g.,
/// scheduling tasks as they arrive)").
///
/// Tasks are revealed to a policy only when they become ready; the policy
/// must place each immediately and irrevocably. For each dataset we report
/// every online policy's (`Online?policy=...`) makespan ratio against
/// offline HEFT on the same instance — the "price of online-ness" — plus
/// an adversarial twist: PISA hunting instances where online EFT maximally
/// underperforms offline HEFT.
///
/// Expected shape: policy=eft pays a modest premium over offline HEFT on
/// benchmarking datasets (it lacks rank lookahead), policy=rr/random pay a
/// large one, and PISA widens the online-EFT gap well past its
/// benchmarking value — the paper's core message holds for the online
/// setting too.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "core/annealer.hpp"
#include "datasets/registry.hpp"
#include "sched/registry.hpp"

int main() {
  using namespace saga;
  bench::banner("bench_online", "online scheduling (future work)");
  bench::ScopedTimer timer("online total");

  const auto& registry = SchedulerRegistry::instance();
  const auto heft = registry.make("HEFT", kDefaultSchedulerSeed);
  for (const char* dataset : {"chains", "blast", "montage", "etl"}) {
    const std::size_t count = scaled_count(100, 10);
    const auto source = datasets::DatasetRegistry::instance().make(dataset, env_seed());
    std::printf("\n=== %s (%zu instances; ratio vs offline HEFT) ===\n", dataset, count);
    for (const char* policy : {"Online?policy=eft", "Online?policy=rr", "Online?policy=fastest",
                               "Online?policy=locality", "Online?policy=random"}) {
      const auto online = registry.make(policy, env_seed());
      std::vector<double> ratios;
      for (std::size_t i = 0; i < count; ++i) {
        const auto inst = source->generate(i);
        const double online_ms = online->schedule(inst).makespan();
        const double offline_ms = heft->schedule(inst).makespan();
        ratios.push_back(offline_ms > 0.0 ? online_ms / offline_ms : 1.0);
      }
      std::printf("  %-24s %s\n", policy, to_string(summarize(ratios)).c_str());
    }
  }

  // Adversarial online analysis: PISA against the online-EFT policy.
  std::printf("\n=== PISA: online-EFT vs offline HEFT (adversarial) ===\n");
  const auto online_eft = registry.make("Online?policy=eft", env_seed());
  const auto objective = [&](const ProblemInstance& inst) {
    const double online_ms = online_eft->schedule(inst).makespan();
    const double offline_ms = heft->schedule(inst).makespan();
    if (offline_ms == 0.0) return online_ms == 0.0 ? 1.0 : 1e9;
    return online_ms / offline_ms;
  };
  double best = 0.0;
  const std::size_t restarts = scaled_count(5, 5);
  for (std::size_t run = 0; run < restarts; ++run) {
    const auto initial = pisa::random_chain_instance(derive_seed(env_seed(), {0x0, run}));
    const auto result =
        pisa::anneal_objective(objective, initial, pisa::PerturbationConfig::generic(),
                               pisa::AnnealingParams{}, derive_seed(env_seed(), {0x1, run}));
    best = std::max(best, result.best_ratio);
  }
  std::printf("worst instance found: online-EFT is %.3fx worse than offline HEFT\n", best);
  return 0;
}
