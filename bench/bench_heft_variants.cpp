/// HEFT variant ablation — how much do HEFT's two internal knobs matter?
///
/// Zhao & Sakellariou (2003) showed the rank statistic feeding HEFT's
/// priority list can swing makespans substantially; the insertion policy
/// is the other quietly load-bearing choice. We compare:
///   - rank statistic: mean (published) vs best-node vs worst-node
///     execution time;
///   - placement: insertion (published) vs append-only (= MH with a
///     different priority).
/// Two lenses, matching the paper's overall thesis:
///   1. benchmarking: mean/max makespan ratios across three datasets
///      (variants are nearly indistinguishable on average);
///   2. adversarial: PISA between variant pairs (instances exist where
///      each variant beats the other well beyond the benchmarking gap).

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/annealer.hpp"
#include "datasets/registry.hpp"
#include "schedulers/heft.hpp"

namespace {

using namespace saga;

struct NamedVariant {
  const char* label;
  HeftScheduler::Variant variant;
};

const NamedVariant kVariants[] = {
    {"mean+insertion (paper)", {HeftScheduler::RankStatistic::kMean, true}},
    {"best+insertion", {HeftScheduler::RankStatistic::kBest, true}},
    {"worst+insertion", {HeftScheduler::RankStatistic::kWorst, true}},
    {"mean+append", {HeftScheduler::RankStatistic::kMean, false}},
};

}  // namespace

int main() {
  bench::banner("bench_heft_variants", "HEFT rank/insertion ablation (cf. Zhao & Sakellariou)");
  bench::ScopedTimer timer("heft variants total");

  // Lens 1: benchmarking across datasets; ratio baseline = best variant
  // per instance.
  for (const char* dataset : {"chains", "montage", "genome"}) {
    const std::size_t count = scaled_count(100, 20);
    std::vector<std::vector<double>> makespans(std::size(kVariants));
    const auto source = datasets::DatasetRegistry::instance().make(dataset, env_seed());
    for (std::size_t i = 0; i < count; ++i) {
      const auto inst = source->generate(i);
      std::vector<double> row;
      for (const auto& nv : kVariants) {
        row.push_back(HeftScheduler(nv.variant).schedule(inst).makespan());
      }
      const double best = *std::min_element(row.begin(), row.end());
      for (std::size_t v = 0; v < row.size(); ++v) {
        makespans[v].push_back(best > 0.0 ? row[v] / best : 1.0);
      }
    }
    std::printf("\n=== %s (%zu instances; ratio vs best variant) ===\n", dataset, count);
    for (std::size_t v = 0; v < std::size(kVariants); ++v) {
      std::printf("  %-24s %s\n", kVariants[v].label, to_string(summarize(makespans[v])).c_str());
    }
  }

  // Lens 2: adversarial — PISA between the paper variant and each other.
  std::printf("\n=== PISA between variants (worst ratio found, both directions) ===\n");
  const std::size_t restarts = scaled_count(5, 5);
  const HeftScheduler paper(kVariants[0].variant);
  for (std::size_t v = 1; v < std::size(kVariants); ++v) {
    const HeftScheduler other(kVariants[v].variant);
    pisa::PisaOptions options;
    options.restarts = restarts;
    const double paper_loses =
        pisa::run_pisa(paper, other, options, derive_seed(env_seed(), {v, 0})).best_ratio;
    const double other_loses =
        pisa::run_pisa(other, paper, options, derive_seed(env_seed(), {v, 1})).best_ratio;
    std::printf("  paper vs %-24s paper worse: %6.3f   %s worse: %6.3f\n", kVariants[v].label,
                paper_loses, kVariants[v].label, other_loses);
  }
  return 0;
}
