#include "schedulers/smt_binary_search.hpp"

#include <cmath>

#include "schedulers/exact_search.hpp"
#include "schedulers/fastest_node.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

Schedule SmtBinarySearchScheduler::schedule(const ProblemInstance& inst,
                                            TimelineArena* arena) const {
  Schedule incumbent = FastestNodeScheduler{}.schedule(inst, arena);
  double hi = incumbent.makespan();
  double lo = makespan_lower_bound(inst);
  if (hi <= 0.0) return incumbent;  // all-zero-cost graph: already optimal
  lo = std::min(lo, hi);

  // Invariant: a schedule with makespan ≤ hi exists (the incumbent);
  // no schedule with makespan < lo exists.
  while (hi > (1.0 + epsilon_) * lo && hi - lo > 1e-12) {
    const double mid = 0.5 * (lo + hi);
    ExactSearchOptions options;
    options.bound = mid;
    options.first_below_bound = true;
    const auto result = exact_search(inst, options, arena);
    if (result.schedule.has_value()) {
      incumbent = *result.schedule;
      hi = incumbent.makespan();
    } else {
      lo = mid;
    }
  }
  return incumbent;
}


void register_smt_binary_search_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "SMT";
  desc.summary = "SMT-style binary search on the makespan bound; (1+epsilon)-optimal oracle";
  desc.tags = {"table1"};
  desc.exponential_time = true;
  desc.params = {{"epsilon", "relative optimality gap, > 0 (default 0.01)"}};
  desc.factory = [](const SchedulerParams& params, std::uint64_t) -> SchedulerPtr {
    const double epsilon = params.get_double("epsilon", 0.01);
    if (!(epsilon > 0.0)) params.reject("epsilon", "a number > 0");
    return std::make_unique<SmtBinarySearchScheduler>(epsilon);
  };
  registry.add(std::move(desc));
}

}  // namespace saga
