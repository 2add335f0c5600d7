#include "schedulers/sim_anneal.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "sched/arena.hpp"
#include "sched/decoder.hpp"
#include "sched/ranks.hpp"
#include "schedulers/heft.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

Schedule SimAnnealScheduler::schedule(const ProblemInstance& inst, TimelineArena* arena) const {
  const std::size_t n = inst.graph.task_count();
  if (n == 0) return Schedule{};
  const std::size_t nodes = inst.network.node_count();
  Rng rng(seed_);

  // Start from HEFT's solution.
  ScheduleEncoding current;
  {
    const Schedule heft = HeftScheduler{}.schedule(inst, arena);
    current.assignment.resize(n);
    for (TaskId t = 0; t < n; ++t) current.assignment[t] = heft.of_task(t).node;
    if (arena != nullptr) {
      upward_ranks(arena->view_for(inst), current.priority);
    } else {
      current.priority = upward_ranks(inst);
    }
  }
  double current_makespan = decoded_makespan(inst, current, arena);
  ScheduleEncoding best = current;
  double best_makespan = current_makespan;

  // Temperatures are relative to the initial makespan so the acceptance
  // probability is scale-free.
  const double scale = current_makespan > 0.0 ? current_makespan : 1.0;
  for (double t = params_.t_max; t > params_.t_min; t *= params_.alpha) {
    for (std::size_t step = 0; step < params_.steps_per_temperature; ++step) {
      ScheduleEncoding candidate = current;
      const TaskId task = static_cast<TaskId>(rng.index(n));
      if (nodes > 1 && rng.bernoulli(0.5)) {
        candidate.assignment[task] = static_cast<NodeId>(rng.index(nodes));
      } else {
        candidate.priority[task] += rng.uniform(-0.2, 0.2) *
                                    (candidate.priority[task] != 0.0
                                         ? std::abs(candidate.priority[task])
                                         : 1.0);
      }
      const double candidate_makespan = decoded_makespan(inst, candidate, arena);
      const double delta = (candidate_makespan - current_makespan) / scale;
      if (delta <= 0.0 || rng.bernoulli(std::exp(-delta / t))) {
        current = std::move(candidate);
        current_makespan = candidate_makespan;
        if (current_makespan < best_makespan) {
          best = current;
          best_makespan = current_makespan;
        }
      }
    }
  }
  return decode_schedule(inst, best, arena);
}


void register_sim_anneal_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "SimAnneal";
  desc.aliases = {"SA"};
  desc.summary = "Simulated annealing over schedule chromosomes (not PISA), HEFT-seeded";
  desc.tags = {"extension"};
  desc.randomized = true;
  desc.params = {
      {"tmax", "initial temperature relative to the initial makespan, finite (default 1.0)"},
      {"tmin", "final temperature, > 0 (default 1e-3)"},
      {"alpha", "geometric cooling rate in (0,1) (default 0.98)"},
      {"steps", "steps per temperature (default 8)"},
  };
  desc.factory = [](const SchedulerParams& params, std::uint64_t seed) -> SchedulerPtr {
    SimAnnealScheduler::Params p;
    p.t_max = params.get_double("tmax", p.t_max);
    p.t_min = params.get_double("tmin", p.t_min);
    p.alpha = params.get_double("alpha", p.alpha);
    p.steps_per_temperature = params.get_size("steps", p.steps_per_temperature);
    // Each of these would keep the cooling loop from ever reaching t_min.
    if (!(p.alpha > 0.0 && p.alpha < 1.0)) params.reject("alpha", "a number in (0, 1)");
    if (!(p.t_min > 0.0)) params.reject("tmin", "a number > 0");
    if (!std::isfinite(p.t_max)) params.reject("tmax", "a finite number");
    return std::make_unique<SimAnnealScheduler>(seed, p);
  };
  registry.add(std::move(desc));
}

}  // namespace saga
