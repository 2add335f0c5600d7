/// Figs. 7 and 8 — generalising the case study into instance families.
///
/// Fig. 7: fork-join graphs with one expensive initial communication edge,
/// on a homogeneous network — HEFT's makespan distribution sits far above
/// CPoP's. Fig. 8: 9-wide fork-joins with expensive join edges on a network
/// whose fastest node has a weak link to the second-fastest — CPoP's
/// distribution sits far above HEFT's. The paper draws 1000-sample box
/// plots; we print five-number summaries of the same distributions (scaled
/// by SAGA_SCALE) plus the win rate.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "datasets/families.hpp"
#include "sched/registry.hpp"

namespace {

void run_family(const char* title, const char* expectation,
                saga::ProblemInstance (*make)(std::uint64_t), std::size_t samples,
                std::uint64_t seed) {
  using namespace saga;
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const auto cpop = SchedulerRegistry::instance().make("CPoP", kDefaultSchedulerSeed);
  std::vector<double> heft_ms, cpop_ms;
  std::size_t heft_wins = 0, cpop_wins = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    const auto inst = make(derive_seed(seed, {i}));
    const double h = heft->schedule(inst).makespan();
    const double c = cpop->schedule(inst).makespan();
    heft_ms.push_back(h);
    cpop_ms.push_back(c);
    if (h < c) ++heft_wins;
    if (c < h) ++cpop_wins;
  }
  std::printf("\n=== %s (%zu samples) ===\n", title, samples);
  std::printf("expected shape: %s\n", expectation);
  std::printf("  HEFT makespans: %s\n", to_string(summarize(heft_ms)).c_str());
  std::printf("  CPoP makespans: %s\n", to_string(summarize(cpop_ms)).c_str());
  std::printf("  wins: HEFT %zu, CPoP %zu, ties %zu\n", heft_wins, cpop_wins,
              samples - heft_wins - cpop_wins);
  std::printf("  mean(HEFT)/mean(CPoP) = %.3f\n", mean(heft_ms) / mean(cpop_ms));
}

}  // namespace

int main() {
  using namespace saga;
  bench::banner("bench_fig07_08_families", "Figs. 7-8 (adversarial instance families)");
  bench::ScopedTimer timer("fig07_08 total");
  const std::size_t samples = scaled_count(1000, 100);
  run_family("Fig. 7 family: fork-join, expensive initial edge (homogeneous network)",
             "HEFT markedly worse than CPoP (paper: HEFT's box sits ~2-4x higher)",
             families::heft_adversarial_instance, samples, env_seed());
  run_family("Fig. 8 family: 9-wide fork-join, expensive join edges, weak fast-node link",
             "CPoP markedly worse than HEFT (paper: CPoP's box sits ~2-4x higher)",
             families::cpop_adversarial_instance, samples, env_seed() + 1);
  return 0;
}
