/// publish_atlas — build a shareable atlas of adversarial instances (the
/// paper's conclusion: "we also plan to develop a framework for publishing
/// the problem instances identified by PISA so that other researchers can
/// use them to evaluate their own algorithms").
///
/// Usage: publish_atlas [output_dir] [restarts] [seed]
///
/// Runs PISA for every ordered pair of a six-scheduler roster, collects the
/// witnesses into an analysis::Atlas, saves it to disk, reloads it, and
/// re-verifies every recorded ratio — the full publish/replay loop. The
/// produced directory can be checked independently with
/// `saga atlas-verify <dir>`.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/atlas.hpp"
#include "core/annealer.hpp"
#include "sched/registry.hpp"

int main(int argc, char** argv) {
  using namespace saga;
  const std::string out_dir = argc > 1 ? argv[1] : "pisa_atlas";
  const std::size_t restarts = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 5;
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 42;

  analysis::Atlas atlas;
  const auto& registry = SchedulerRegistry::instance();
  const auto roster = registry.names("app-specific");
  std::uint64_t pair_index = 0;
  for (const auto& target_name : roster) {
    for (const auto& baseline_name : roster) {
      if (target_name == baseline_name) continue;
      const std::uint64_t pair_seed = derive_seed(seed, {pair_index});
      const auto target = registry.make(target_name, pair_seed);
      const auto baseline = registry.make(baseline_name, pair_seed);
      pisa::PisaOptions options;
      options.restarts = restarts;
      const auto result =
          pisa::run_pisa(*target, *baseline, options, derive_seed(pair_seed, {3}));
      atlas.add({target_name, baseline_name, result.best_ratio, pair_seed,
                 result.best_instance});
      std::printf("%-12s vs %-12s worst ratio %8.3f\n", target_name.c_str(),
                  baseline_name.c_str(), result.best_ratio);
      ++pair_index;
    }
  }

  const auto files = atlas.save(out_dir);
  std::printf("\nwrote %zu instances to %s\n", files.size(), out_dir.c_str());

  // Reload from disk and re-verify: every entry records the seed its
  // schedulers were constructed with, so the whole atlas must reproduce
  // bit-exactly, including the randomized WBA pairs.
  const auto reloaded = analysis::Atlas::load(out_dir);
  const auto mismatches = reloaded.verify(1e-9);
  if (!mismatches.empty()) {
    for (const auto& m : mismatches) std::fprintf(stderr, "MISMATCH: %s\n", m.c_str());
    return EXIT_FAILURE;
  }
  std::printf("reloaded %zu entries; all re-verified exactly\n", reloaded.size());
  return EXIT_SUCCESS;
}
