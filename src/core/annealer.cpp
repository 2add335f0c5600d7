#include "core/annealer.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "core/constraints.hpp"
#include "sched/arena.hpp"

namespace saga::pisa {

double makespan_ratio(const Scheduler& target, const Scheduler& baseline,
                      const ProblemInstance& inst, TimelineArena* arena) {
  // plan_makespan is bit-identical to schedule(...).makespan() but skips
  // materializing the Schedule — two fewer allocations per PISA step.
  const double m_target = target.plan_makespan(inst, arena);
  const double m_baseline = baseline.plan_makespan(inst, arena);
  if (m_baseline == 0.0) {
    return m_target == 0.0 ? 1.0 : std::numeric_limits<double>::infinity();
  }
  return m_target / m_baseline;
}

namespace {

/// Acceptance probability for a strictly worse candidate (Algorithm 1 line
/// 9, or the Metropolis ablation).
double acceptance_probability(const AnnealingParams& params, double candidate_ratio,
                              double current_ratio, double best_ratio, double temperature) {
  switch (params.acceptance) {
    case AnnealingParams::AcceptanceRule::kPaper: {
      // Algorithm 1 line 9: exp(-(M'/M_best)/T). With an infinite best
      // ratio the exponent underflows to exp(0) = 1; guard explicitly.
      const double rel = std::isinf(best_ratio) || best_ratio == 0.0
                             ? 1.0
                             : candidate_ratio / best_ratio;
      return std::exp(-rel / temperature);
    }
    case AnnealingParams::AcceptanceRule::kMetropolis: {
      // Classic rule on the relative decrease from the *current* state.
      if (current_ratio > 0.0 && std::isfinite(current_ratio)) {
        const double decrease = (current_ratio - candidate_ratio) / current_ratio;
        return std::exp(-decrease / temperature);
      }
      return 0.0;
    }
  }
  return 0.0;
}

/// Propagates a recorded perturbation into the arena's cached view without
/// a table refresh: weight operators overwrite the one changed weight in
/// the packed tables, structural operators splice the one edge in or out of
/// the CSR arrays, and the new stamps are adopted — so the next
/// evaluation's sync is a no-op. The patched view is bit-identical to a
/// freshly synced one (see InstanceView::patch_*).
void patch_view_apply(InstanceView& view, const ProblemInstance& inst,
                      const AppliedPerturbation& p) {
  switch (p.op) {
    case PerturbationOp::kChangeNetworkNodeWeight:
      view.patch_node_speed(inst, p.a, p.after);
      break;
    case PerturbationOp::kChangeNetworkEdgeWeight:
      view.patch_link_strength(inst, p.a, p.b, p.after);
      break;
    case PerturbationOp::kChangeTaskWeight:
      view.patch_task_cost(inst, p.a, p.after);
      break;
    case PerturbationOp::kChangeDependencyWeight:
      view.patch_dependency_cost(inst, p.a, p.b, p.after);
      break;
    case PerturbationOp::kAddDependency:
      view.patch_add_dependency(inst, p.a, p.b, p.after);
      break;
    case PerturbationOp::kRemoveDependency:
      view.patch_remove_dependency(inst, p.a, p.b);
      break;
  }
}

/// The inverse: propagates `undo_perturbation(inst, p)` into the view.
void patch_view_undo(InstanceView& view, const ProblemInstance& inst,
                     const AppliedPerturbation& p) {
  switch (p.op) {
    case PerturbationOp::kChangeNetworkNodeWeight:
      view.patch_node_speed(inst, p.a, p.before);
      break;
    case PerturbationOp::kChangeNetworkEdgeWeight:
      view.patch_link_strength(inst, p.a, p.b, p.before);
      break;
    case PerturbationOp::kChangeTaskWeight:
      view.patch_task_cost(inst, p.a, p.before);
      break;
    case PerturbationOp::kChangeDependencyWeight:
      view.patch_dependency_cost(inst, p.a, p.b, p.before);
      break;
    case PerturbationOp::kAddDependency:
      view.patch_remove_dependency(inst, p.a, p.b);
      break;
    case PerturbationOp::kRemoveDependency:
      view.patch_add_dependency(inst, p.a, p.b, p.before);
      break;
  }
}

/// Algorithm 1 with one interleaved RNG stream driving perturbation and
/// acceptance. Templated on the objective so the scheduler-pair entry point
/// (`anneal`) runs without a std::function indirection per step.
template <class Objective>
AnnealResult anneal_impl(const Objective& objective, const ProblemInstance& initial,
                         const PerturbationConfig& config, const AnnealingParams& params,
                         std::uint64_t seed, TimelineArena* arena) {
  Rng rng(seed);
  TimelineArena run_arena;
  TimelineArena& eval_arena = arena != nullptr ? *arena : run_arena;

  AnnealResult result;
  // One persistent working instance holds the current state. Each step
  // perturbs it in place and records the change; a rejected candidate is
  // rolled back by inverting the record instead of restoring from a copy,
  // so the loop never copy-assigns the instance. Both shortcuts are
  // bit-exact: undo restores weights and adjacency byte for byte (see
  // AppliedPerturbation), and when a perturbation provably left the
  // instance unchanged (a clamped nudge landing back on the old value) the
  // skipped re-evaluation would have returned exactly current_ratio.
  ProblemInstance state = initial;

  double current_ratio = objective(state, eval_arena);
  result.evaluations = 1;
  result.best_instance = state;
  result.best_ratio = current_ratio;
  result.initial_ratio = current_ratio;

  if (params.record_trace) result.trace.reserve(params.max_iterations);

  double temperature = params.t_max;
  std::size_t iteration = 0;
  while (temperature > params.t_min && iteration < params.max_iterations) {
    // When the arena's view tracks the current state, the perturbation is
    // propagated into it directly (patch_view_apply) instead of letting the
    // next sync re-derive whole tables from the instance — the two are
    // bit-identical, and the patch touches only what changed.
    const bool view_synced = eval_arena.view().in_sync_with(state);
    const auto applied = perturb_in_place_recorded(state, config, rng);
    if (applied.has_value() && view_synced) {
      patch_view_apply(eval_arena.view(), state, *applied);
    }
    double candidate_ratio = current_ratio;
    if (applied.has_value() && applied->changed()) {
      candidate_ratio = objective(state, eval_arena);
      ++result.evaluations;
    }
    const double ratio_before = current_ratio;

    if (candidate_ratio > result.best_ratio) {
      // Algorithm 1 line 6-7: improving candidates update the best solution
      // (and become the current state).
      result.best_instance = state;
      result.best_ratio = candidate_ratio;
      current_ratio = candidate_ratio;
      ++result.improved;
    } else if (candidate_ratio >= current_ratio) {
      // Better than (or equal to) the current state, though not a new best:
      // always accept, as in standard simulated annealing (Algorithm 1
      // leaves this case implicit).
      current_ratio = candidate_ratio;
    } else {
      const double accept_probability = acceptance_probability(
          params, candidate_ratio, current_ratio, result.best_ratio, temperature);
      if (rng.bernoulli(accept_probability)) {
        current_ratio = candidate_ratio;
        ++result.accepted;
      } else if (applied.has_value()) {
        const bool synced = eval_arena.view().in_sync_with(state);
        undo_perturbation(state, *applied);
        if (synced) patch_view_undo(eval_arena.view(), state, *applied);
      }
    }

    if (params.record_trace) {
      result.trace.push_back({iteration, temperature, candidate_ratio, current_ratio,
                              result.best_ratio, current_ratio != ratio_before});
    }
    temperature *= params.alpha;
    ++iteration;
  }
  result.iterations = iteration;
  return result;
}

}  // namespace

AnnealResult anneal_objective(const ArenaObjective& objective, const ProblemInstance& initial,
                              const PerturbationConfig& config, const AnnealingParams& params,
                              std::uint64_t seed, TimelineArena* arena) {
  return anneal_impl(objective, initial, config, params, seed, arena);
}

AnnealResult anneal_objective(const InstanceObjective& objective, const ProblemInstance& initial,
                              const PerturbationConfig& config, const AnnealingParams& params,
                              std::uint64_t seed, TimelineArena* arena) {
  return anneal_objective(
      [&](const ProblemInstance& inst, TimelineArena&) { return objective(inst); }, initial,
      config, params, seed, arena);
}

AnnealResult anneal(const Scheduler& target, const Scheduler& baseline,
                    const ProblemInstance& initial, const PerturbationConfig& config,
                    const AnnealingParams& params, std::uint64_t seed, TimelineArena* arena) {
  // Concrete lambda straight into the template: the per-step objective call
  // is direct (two virtual plan_makespan calls), not a std::function hop.
  const auto objective = [&](const ProblemInstance& inst, TimelineArena& eval) {
    return makespan_ratio(target, baseline, inst, &eval);
  };
  return anneal_impl(objective, initial, config, params, seed, arena);
}

ProblemInstance random_chain_instance(std::uint64_t seed) {
  Rng rng(seed);
  ProblemInstance inst;

  const auto n_nodes = static_cast<std::size_t>(rng.uniform_int(3, 5));
  inst.network = Network(n_nodes);
  // Uniform weights in (0, 1]: floor at the division-safety epsilon.
  const auto net_weight = [&] { return std::max(rng.uniform(), 1e-3); };
  for (NodeId v = 0; v < n_nodes; ++v) inst.network.set_speed(v, net_weight());
  for (NodeId a = 0; a < n_nodes; ++a) {
    for (NodeId b = a + 1; b < n_nodes; ++b) inst.network.set_strength(a, b, net_weight());
  }

  const auto n_tasks = rng.uniform_int(3, 5);
  TaskId prev = inst.graph.add_task(rng.uniform());
  for (std::int64_t i = 1; i < n_tasks; ++i) {
    const TaskId cur = inst.graph.add_task(rng.uniform());
    inst.graph.add_dependency(prev, cur, rng.uniform());
    prev = cur;
  }
  return inst;
}

AnnealResult run_pisa(const Scheduler& target, const Scheduler& baseline,
                      const PisaOptions& options, std::uint64_t seed, TimelineArena* arena) {
  // Honour the pair's combined homogeneity constraints.
  const auto reqs = combine(target.requirements(), baseline.requirements());
  PerturbationConfig config = options.config;
  apply_requirements(config, reqs);

  // One arena serves every restart of this call (per-thread when driven by
  // pairwise_compare).
  TimelineArena run_arena;
  TimelineArena* eval_arena = arena != nullptr ? arena : &run_arena;

  AnnealResult best;
  best.best_ratio = -std::numeric_limits<double>::infinity();
  for (std::size_t run = 0; run < options.restarts; ++run) {
    const std::uint64_t run_seed = derive_seed(seed, {0x9155aULL, run});
    ProblemInstance initial = options.make_initial
                                  ? options.make_initial(derive_seed(run_seed, {0x1417ULL}))
                                  : random_chain_instance(derive_seed(run_seed, {0x1417ULL}));
    normalize_instance(initial, reqs);
    AnnealResult result = anneal(target, baseline, initial, config, options.params,
                                 derive_seed(run_seed, {0xa22eaULL}), eval_arena);
    if (result.best_ratio > best.best_ratio) best = std::move(result);
  }
  return best;
}

}  // namespace saga::pisa
