#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/perturbation.hpp"
#include "graph/problem_instance.hpp"
#include "sched/scheduler.hpp"

/// \file annealer.hpp
/// PISA — Problem-instance Identification using Simulated Annealing
/// (paper Algorithm 1). For a target scheduler A and baseline B, searches
/// for the instance maximising the makespan ratio m(S_A) / m(S_B).

namespace saga::pisa {

/// Annealing schedule; defaults are the paper's Section VI settings
/// (Tmax = 10, Tmin = 0.1, alpha = 0.99, Imax = 1000).
struct AnnealingParams {
  double t_max = 10.0;
  double t_min = 0.1;
  double alpha = 0.99;
  std::size_t max_iterations = 1000;

  /// Acceptance rule. The paper's Algorithm 1 accepts a non-improving
  /// candidate with probability exp(-(M'/M_best)/T); the ablation bench
  /// also exercises the textbook Metropolis rule
  /// exp(-(M_cur - M')/(M_cur · T)) for comparison (DESIGN.md choice #1).
  enum class AcceptanceRule { kPaper, kMetropolis } acceptance = AcceptanceRule::kPaper;

  /// Record the per-iteration trajectory into AnnealResult::trace (one
  /// point per iteration; bounded by max_iterations).
  bool record_trace = false;
};

/// One annealing step, for convergence analysis.
struct TracePoint {
  std::size_t iteration = 0;
  double temperature = 0.0;
  double candidate_ratio = 0.0;
  double current_ratio = 0.0;
  double best_ratio = 0.0;
  bool accepted = false;  // candidate became the current state
};

/// One simulated-annealing trajectory.
struct AnnealResult {
  ProblemInstance best_instance;
  double best_ratio = 0.0;
  double initial_ratio = 0.0;
  std::size_t iterations = 0;
  std::size_t accepted = 0;   // non-improving candidates accepted
  std::size_t improved = 0;   // new-best updates
  /// Objective evaluations actually performed (including the initial one).
  /// Lower than iterations + 1 when perturbations provably left the
  /// instance unchanged (clamped nudges) and re-evaluation was skipped.
  std::size_t evaluations = 0;
  std::vector<TracePoint> trace;  // filled iff params.record_trace
};

/// Makespan ratio m(S_A)/m(S_B) of the two schedulers on an instance.
/// Degenerate combinations follow IEEE semantics (0/0 -> NaN is mapped to
/// ratio 1, x/0 -> +inf), so an instance on which the baseline's makespan
/// is zero but the target's is not yields an infinite ratio (rendered
/// ">1000" as in the paper's figures).
///
/// `arena` (optional, here and below) supplies the shared evaluation
/// kernel's per-thread state — a cached InstanceView refreshed in place as
/// the annealer mutates weights, plus recycled timeline scratch — so the
/// two `schedule()` calls per step are allocation-free once warm.
[[nodiscard]] double makespan_ratio(const Scheduler& target, const Scheduler& baseline,
                                    const ProblemInstance& inst,
                                    TimelineArena* arena = nullptr);

/// An instance objective to maximise. The paper's objective is the
/// makespan ratio of a scheduler pair; the metric extensions (energy,
/// throughput, cost — see metrics/metrics.hpp) plug in here too.
using InstanceObjective = std::function<double(const ProblemInstance&)>;

/// Arena-aware objective: receives the annealer's evaluation arena so
/// scheduler-based objectives can run on the shared kernel.
using ArenaObjective = std::function<double(const ProblemInstance&, TimelineArena&)>;

/// Runs Algorithm 1 on an arbitrary objective. Uses `arena` for the
/// per-step evaluations (a run-local arena when null).
[[nodiscard]] AnnealResult anneal_objective(const ArenaObjective& objective,
                                            const ProblemInstance& initial,
                                            const PerturbationConfig& config,
                                            const AnnealingParams& params, std::uint64_t seed,
                                            TimelineArena* arena = nullptr);
[[nodiscard]] AnnealResult anneal_objective(const InstanceObjective& objective,
                                            const ProblemInstance& initial,
                                            const PerturbationConfig& config,
                                            const AnnealingParams& params, std::uint64_t seed,
                                            TimelineArena* arena = nullptr);

/// Runs Algorithm 1 from the given initial instance with the paper's
/// makespan-ratio objective. The perturbation config should already
/// reflect the pair's homogeneity constraints (see constraints.hpp); the
/// initial instance should be normalised likewise.
[[nodiscard]] AnnealResult anneal(const Scheduler& target, const Scheduler& baseline,
                                  const ProblemInstance& initial,
                                  const PerturbationConfig& config,
                                  const AnnealingParams& params, std::uint64_t seed,
                                  TimelineArena* arena = nullptr);

/// The paper's Section VI initial instance: a complete network with 3-5
/// nodes, uniform weights in (0, 1] (self-links infinite), and a chain task
/// graph with 3-5 tasks, uniform weights in [0, 1].
[[nodiscard]] ProblemInstance random_chain_instance(std::uint64_t seed);

/// Convenience driver: `restarts` independent annealing runs (the paper
/// uses 5) from random chain initial instances (or `make_initial` when
/// provided), returning the best result.
struct PisaOptions {
  AnnealingParams params;
  PerturbationConfig config = PerturbationConfig::generic();
  std::size_t restarts = 5;
  /// Custom initial-instance factory (application-specific PISA); defaults
  /// to random_chain_instance.
  std::function<ProblemInstance(std::uint64_t seed)> make_initial;
};

[[nodiscard]] AnnealResult run_pisa(const Scheduler& target, const Scheduler& baseline,
                                    const PisaOptions& options, std::uint64_t seed,
                                    TimelineArena* arena = nullptr);

}  // namespace saga::pisa
