/// PISA ablations — the design choices DESIGN.md calls out.
///
/// Not a paper figure; quantifies how much each PISA ingredient matters,
/// using HEFT-vs-FastestNode (the paper's marquee comparison) and
/// HEFT-vs-CPoP (a near-peer pair) as probes:
///   1. acceptance rule: the paper's exp(-(M'/M_best)/T) vs textbook
///      Metropolis;
///   2. perturbation mix: all six operators vs weights-only (no structural
///      Add/Remove Dependency);
///   3. restart budget: 5x1000 (paper) vs 1x5000 vs 10x500 at equal
///      schedule-evaluation cost;
///   4. initial instance: random chain vs independent tasks (no edges).

#include <cstdio>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "core/annealer.hpp"
#include "sched/registry.hpp"

namespace {

using namespace saga;

double probe(const char* target, const char* baseline, const pisa::PisaOptions& options,
             std::uint64_t seed) {
  const auto& registry = SchedulerRegistry::instance();
  return pisa::run_pisa(*registry.make(target, kDefaultSchedulerSeed),
                        *registry.make(baseline, kDefaultSchedulerSeed), options, seed)
      .best_ratio;
}

void report(const char* label, const pisa::PisaOptions& options, std::uint64_t seed) {
  const double vs_fastest = probe("HEFT", "FastestNode", options, seed);
  const double vs_cpop = probe("HEFT", "CPoP", options, derive_seed(seed, {1}));
  std::printf("  %-38s HEFT/FastestNode=%7.3f  HEFT/CPoP=%7.3f\n", label, vs_fastest, vs_cpop);
}

}  // namespace

int main() {
  bench::banner("bench_pisa_ablation", "DESIGN.md ablations (not a paper figure)");
  bench::ScopedTimer timer("ablation total");
  const std::uint64_t seed = env_seed();

  std::printf("\n1. acceptance rule\n");
  {
    pisa::PisaOptions paper;
    paper.restarts = scaled_count(5, 3);
    report("paper rule exp(-(M'/Mbest)/T)", paper, seed);
    pisa::PisaOptions metropolis = paper;
    metropolis.params.acceptance = pisa::AnnealingParams::AcceptanceRule::kMetropolis;
    report("metropolis rule", metropolis, seed);
  }

  std::printf("\n2. perturbation mix\n");
  {
    pisa::PisaOptions all_ops;
    all_ops.restarts = scaled_count(5, 3);
    report("all six operators (paper)", all_ops, seed);
    pisa::PisaOptions weights_only = all_ops;
    weights_only.config.set_enabled(pisa::PerturbationOp::kAddDependency, false);
    weights_only.config.set_enabled(pisa::PerturbationOp::kRemoveDependency, false);
    report("weights only (structure frozen)", weights_only, seed);
  }

  std::printf("\n3. restart budget (equal evaluation cost)\n");
  {
    // Temperature floor also caps iterations; lift it so max_iterations binds.
    for (const auto& [restarts, iters, label] :
         {std::tuple<std::size_t, std::size_t, const char*>{5, 1000, "5 x 1000 (paper)"},
          {1, 5000, "1 x 5000"},
          {10, 500, "10 x 500"}}) {
      pisa::PisaOptions options;
      options.restarts = restarts;
      options.params.max_iterations = iters;
      options.params.t_min = 1e-12;
      options.params.alpha = 0.999;
      report(label, options, seed);
    }
  }

  std::printf("\n4. initial instance family\n");
  {
    pisa::PisaOptions chain;
    chain.restarts = scaled_count(5, 3);
    report("random chain (paper)", chain, seed);
    pisa::PisaOptions independent = chain;
    independent.make_initial = [](std::uint64_t s) {
      Rng rng(s);
      ProblemInstance inst;
      const auto tasks = rng.uniform_int(3, 5);
      for (std::int64_t i = 0; i < tasks; ++i) inst.graph.add_task(rng.uniform());
      inst.network = Network(static_cast<std::size_t>(rng.uniform_int(3, 5)));
      for (NodeId v = 0; v < inst.network.node_count(); ++v) {
        inst.network.set_speed(v, std::max(rng.uniform(), 1e-3));
      }
      return inst;
    };
    report("independent tasks (no edges)", independent, seed);
  }
  return 0;
}
