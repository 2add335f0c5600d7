/// Hybrid-scheduler construction via PISA (paper Section VII/VIII: "a WFMS
/// designer might run PISA and choose the three algorithms with the
/// combined minimum maximum makespan ratio. Exploring different methods for
/// constructing and comparing such hybrid algorithms is an interesting
/// topic for future work.").
///
/// Protocol: run the pairwise PISA grid over the six Section VII
/// schedulers and *keep every witness instance* — the hardest instances
/// known for this roster. Then, for portfolio sizes k = 1..3, exhaustively
/// pick the scheduler subset minimising the worst makespan ratio across
/// all witnesses (the portfolio runs all members and keeps the best
/// schedule). Contrast with wfms_advisor, which selects on benchmarking
/// instances: adversarially-selected portfolios hedge differently.
///
/// Expected shape: k=1 is bad (every single scheduler has adversarial
/// witnesses against it); k=2 already removes most of the tail; k=3
/// approaches ratio 1 on this witness set.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/annealer.hpp"
#include "sched/registry.hpp"

int main() {
  using namespace saga;
  bench::banner("bench_hybrid_portfolio", "Section VII/VIII hybrid-scheduler construction");
  bench::ScopedTimer timer("hybrid total");

  const auto& registry = SchedulerRegistry::instance();
  const auto roster = registry.names("app-specific");
  const std::size_t n = roster.size();
  const std::size_t restarts = scaled_count(5, 5);

  // Collect witness instances from every ordered pair.
  std::vector<ProblemInstance> witnesses;
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t b = 0; b < n; ++b) {
      if (t == b) continue;
      const std::uint64_t pair_seed = derive_seed(env_seed(), {t, b});
      const auto target = registry.make(roster[t], pair_seed);
      const auto baseline = registry.make(roster[b], pair_seed);
      pisa::PisaOptions options;
      options.restarts = restarts;
      witnesses.push_back(
          pisa::run_pisa(*target, *baseline, options, pair_seed).best_instance);
    }
  }
  std::printf("collected %zu adversarial witness instances\n", witnesses.size());

  // makespans[w][s].
  std::vector<std::vector<double>> makespans(witnesses.size(), std::vector<double>(n, 0.0));
  for (std::size_t w = 0; w < witnesses.size(); ++w) {
    for (std::size_t s = 0; s < n; ++s) {
      const auto scheduler = registry.make(roster[s], derive_seed(env_seed(), {9, s}));
      makespans[w][s] = scheduler->schedule(witnesses[w]).makespan();
    }
  }

  const auto portfolio_score = [&](const std::vector<std::size_t>& members) {
    double worst = 1.0;
    for (const auto& row : makespans) {
      const double best_all = *std::min_element(row.begin(), row.end());
      double best_members = std::numeric_limits<double>::infinity();
      for (std::size_t s : members) best_members = std::min(best_members, row[s]);
      if (best_all > 0.0) worst = std::max(worst, best_members / best_all);
    }
    return worst;
  };

  for (std::size_t k = 1; k <= 3; ++k) {
    std::vector<bool> mask(n, false);
    std::fill(mask.end() - static_cast<std::ptrdiff_t>(k), mask.end(), true);
    double best_score = std::numeric_limits<double>::infinity();
    std::vector<std::size_t> best_members;
    do {
      std::vector<std::size_t> members;
      for (std::size_t i = 0; i < n; ++i) {
        if (mask[i]) members.push_back(i);
      }
      const double score = portfolio_score(members);
      if (score < best_score) {
        best_score = score;
        best_members = members;
      }
    } while (std::next_permutation(mask.begin(), mask.end()));

    std::printf("best portfolio of %zu:", k);
    for (std::size_t s : best_members) std::printf(" %s", roster[s].c_str());
    std::printf("  (worst ratio on the witness set: %.3f)\n", best_score);
  }

  std::printf("\nper-scheduler worst ratio on the witness set:\n");
  for (std::size_t s = 0; s < n; ++s) {
    std::printf("  %-12s %s\n", roster[s].c_str(),
                format_ratio_cell(portfolio_score({s})).c_str());
  }
  return 0;
}
