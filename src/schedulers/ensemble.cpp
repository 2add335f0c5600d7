#include "schedulers/ensemble.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

EnsembleScheduler::EnsembleScheduler(std::vector<std::string> members, std::uint64_t seed)
    : members_(std::move(members)), seed_(seed) {
  if (members_.empty()) throw std::invalid_argument("ensemble needs at least one member");
  // Construct every member eagerly so a misspelled name or parameter fails
  // here — where spec validation and `saga run --dry-run` can report it —
  // rather than mid-experiment on the first schedule() call. The built
  // members are kept and reused: schedulers are stateless between calls
  // (randomized ones re-derive their stream from the constructor seed), so
  // re-construction per call would only cost allocations.
  built_.reserve(members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    built_.push_back(SchedulerRegistry::instance().make(members_[i], derive_seed(seed_, {i})));
  }
}

NetworkRequirements EnsembleScheduler::requirements() const {
  // The ensemble inherits the union of its members' restrictions: it can
  // only be trusted on networks every member was designed for.
  NetworkRequirements combined;
  for (const auto& member : built_) {
    const auto reqs = member->requirements();
    combined.homogeneous_node_speeds |= reqs.homogeneous_node_speeds;
    combined.homogeneous_link_strengths |= reqs.homogeneous_link_strengths;
  }
  return combined;
}

Schedule EnsembleScheduler::schedule(const ProblemInstance& inst, TimelineArena* arena) const {
  Schedule best;
  bool first = true;
  for (const auto& member : built_) {
    Schedule candidate = member->schedule(inst, arena);
    if (first || candidate.makespan() < best.makespan()) {
      best = std::move(candidate);
      first = false;
    }
  }
  return best;
}

double EnsembleScheduler::plan_makespan(const ProblemInstance& inst,
                                        TimelineArena* arena) const {
  // `candidate < best` keeps the first of equals, so the result is exactly
  // the running min of the members' makespans.
  double best = built_.front()->plan_makespan(inst, arena);
  for (std::size_t i = 1; i < built_.size(); ++i) {
    best = std::min(best, built_[i]->plan_makespan(inst, arena));
  }
  return best;
}


void register_ensemble_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "Ensemble";
  desc.aliases = {"Portfolio"};
  desc.summary = "Portfolio: runs every member scheduler, returns the best schedule";
  desc.tags = {"extension"};
  desc.randomized = true;
  desc.params = {
      {"members", "'+'-separated member names (default heft+cpop+minmin)"},
  };
  desc.factory = [](const SchedulerParams& params, std::uint64_t seed) -> SchedulerPtr {
    return std::make_unique<EnsembleScheduler>(
        params.get_list("members", {"HEFT", "CPoP", "MinMin"}), seed);
  };
  registry.add(std::move(desc));
}

}  // namespace saga
