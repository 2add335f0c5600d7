#include "schedulers/genetic.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "sched/arena.hpp"
#include "sched/decoder.hpp"
#include "sched/ranks.hpp"
#include "schedulers/heft.hpp"
#include "sched/registry.hpp"
#include "schedulers/register.hpp"

namespace saga {

namespace {

struct Individual {
  ScheduleEncoding encoding;
  double makespan = std::numeric_limits<double>::infinity();
};

}  // namespace

Schedule GeneticScheduler::schedule(const ProblemInstance& inst, TimelineArena* arena) const {
  const std::size_t n = inst.graph.task_count();
  if (n == 0) return Schedule{};
  const std::size_t nodes = inst.network.node_count();
  Rng rng(seed_);

  const auto evaluate = [&](Individual& ind) {
    ind.makespan = decoded_makespan(inst, ind.encoding, arena);
  };

  // Initial population: the HEFT solution's encoding (assignment from the
  // HEFT schedule, priority = upward rank) plus random individuals.
  std::vector<Individual> population(params_.population);
  {
    const Schedule heft = HeftScheduler{}.schedule(inst, arena);
    Individual& elite = population[0];
    elite.encoding.assignment.resize(n);
    for (TaskId t = 0; t < n; ++t) elite.encoding.assignment[t] = heft.of_task(t).node;
    if (arena != nullptr) {
      upward_ranks(arena->view_for(inst), elite.encoding.priority);
    } else {
      elite.encoding.priority = upward_ranks(inst);
    }
    evaluate(elite);
  }
  for (std::size_t i = 1; i < population.size(); ++i) {
    Individual& ind = population[i];
    ind.encoding.assignment.resize(n);
    ind.encoding.priority.resize(n);
    for (TaskId t = 0; t < n; ++t) {
      ind.encoding.assignment[t] = static_cast<NodeId>(rng.index(nodes));
      ind.encoding.priority[t] = rng.uniform();
    }
    evaluate(ind);
  }

  const auto better = [](const Individual& a, const Individual& b) {
    return a.makespan < b.makespan;
  };
  const auto tournament_pick = [&]() -> const Individual& {
    std::size_t best = rng.index(population.size());
    for (std::size_t i = 1; i < params_.tournament; ++i) {
      const std::size_t challenger = rng.index(population.size());
      if (better(population[challenger], population[best])) best = challenger;
    }
    return population[best];
  };

  for (std::size_t gen = 0; gen < params_.generations; ++gen) {
    std::vector<Individual> next;
    next.reserve(population.size());
    // Elitism: carry the best individual unchanged.
    next.push_back(*std::min_element(population.begin(), population.end(), better));

    while (next.size() < population.size()) {
      Individual child = tournament_pick();
      if (rng.bernoulli(params_.crossover_rate)) {
        const Individual& other = tournament_pick();
        for (TaskId t = 0; t < n; ++t) {
          if (rng.bernoulli(0.5)) {
            child.encoding.assignment[t] = other.encoding.assignment[t];
          }
          if (rng.bernoulli(0.5)) {
            child.encoding.priority[t] = other.encoding.priority[t];
          }
        }
      }
      for (TaskId t = 0; t < n; ++t) {
        if (rng.bernoulli(params_.mutation_rate)) {
          child.encoding.assignment[t] = static_cast<NodeId>(rng.index(nodes));
        }
        if (rng.bernoulli(params_.mutation_rate)) {
          child.encoding.priority[t] = rng.uniform();
        }
      }
      evaluate(child);
      next.push_back(std::move(child));
    }
    population = std::move(next);
  }

  const Individual& best = *std::min_element(population.begin(), population.end(), better);
  return decode_schedule(inst, best.encoding, arena);
}


void register_genetic_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "GA";
  desc.aliases = {"Genetic"};
  desc.summary = "Genetic algorithm over (assignment, priority) chromosomes, HEFT-seeded";
  desc.tags = {"extension"};
  desc.randomized = true;
  desc.params = {
      {"pop", "population size, >= 1 (default 24)"},
      {"gens", "generations (default 60)"},
      {"tournament", "tournament size (default 3)"},
      {"crossover", "crossover rate in [0,1] (default 0.9)"},
      {"mutation", "per-gene mutation rate (default 0.08)"},
  };
  desc.factory = [](const SchedulerParams& params, std::uint64_t seed) -> SchedulerPtr {
    GeneticScheduler::Params p;
    p.population = params.get_size("pop", p.population);
    if (p.population == 0) params.reject("pop", "an integer >= 1");
    p.generations = params.get_size("gens", p.generations);
    p.tournament = params.get_size("tournament", p.tournament);
    p.crossover_rate = params.get_double("crossover", p.crossover_rate);
    p.mutation_rate = params.get_double("mutation", p.mutation_rate);
    return std::make_unique<GeneticScheduler>(seed, p);
  };
  registry.add(std::move(desc));
}

}  // namespace saga
