// The two PISA workloads. pisa_chains is the paper's Fig. 4 grid: a
// pisa-pairwise ExperimentSpec over the 15 @benchmark schedulers, annealed
// from random 3-5-task chains with all six PERTURB operators, run through
// exp::run_experiment. pisa_workflows is Section VII: pisa::pairwise_compare
// over the @app-specific roster with app_specific_options for each
// configured workflow at one CCR, so the structure is frozen.
//
// The traced run replays every cell through pisa::anneal_objective with an
// objective that times the target's and the baseline's plan_makespan
// separately, rebuilding each cell exactly as run_pisa does; the replayed
// ratio grid must equal the untraced one bit for bit.

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/annealer.hpp"
#include "core/app_specific.hpp"
#include "core/constraints.hpp"
#include "core/pairwise.hpp"
#include "core/perturbation.hpp"
#include "exp/cells.hpp"
#include "exp/experiment.hpp"
#include "graph/instance_view.hpp"
#include "sched/arena.hpp"
#include "sched/ranks.hpp"
#include "sched/registry.hpp"
#include "sched/timeline.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using Matrix = std::vector<std::vector<double>>;
using saga::ProblemInstance;
using saga::pisa::PerturbationOp;

/// What one pairwise grid covers: one pairwise_compare call, or the single
/// grid of a pisa-pairwise experiment.
struct Grid {
  std::vector<std::string> roster;
  saga::pisa::PisaOptions options;
  std::uint64_t seed = 0;
};

/// A pairwise grid and the untraced call that runs it: the whole
/// pisa-pairwise experiment for pisa_chains, one workflow's
/// pairwise_compare for pisa_workflows. The grids of one input set form
/// one operation of a pass.
struct GridRun {
  Grid grid;
  std::function<Matrix(saga::ThreadPool&)> run;
  std::size_t input = 0;  // the input set this grid belongs to
};

/// Iterations of one annealing restart: the temperature schedule alone
/// decides it, whatever the seed (459 for Tmax 10, Tmin 0.1, alpha 0.99).
std::size_t steps_per_restart(const saga::pisa::AnnealingParams& p) {
  double temperature = p.t_max;
  std::size_t steps = 0;
  while (temperature > p.t_min && steps < p.max_iterations) {
    temperature *= p.alpha;
    ++steps;
  }
  return steps;
}

std::size_t cells_of(const Grid& g) { return g.roster.size() * (g.roster.size() - 1); }

std::size_t steps_of(const Grid& g) {
  return cells_of(g) * g.options.restarts * steps_per_restart(g.options.params);
}

std::string digest_of(const std::vector<Matrix>& grids) {
  std::string text;
  for (const Matrix& m : grids) {
    for (std::size_t row = 0; row < m.size(); ++row) {
      for (std::size_t col = 0; col < m[row].size(); ++col) {
        if (row != col) text += exact(m[row][col]) + ",";
      }
    }
    text += ";";
  }
  return digest_hex(text);
}

/// Off-diagonal cells whose ratios differ in any bit.
std::size_t differing_cells(const Matrix& a, const Matrix& b) {
  std::size_t differ = 0;
  for (std::size_t row = 0; row < a.size(); ++row) {
    for (std::size_t col = 0; col < a.size(); ++col) {
      if (row != col && exact(a[row][col]) != exact(b[row][col])) ++differ;
    }
  }
  return differ;
}

std::vector<GridRun> setup_chains(const std::vector<std::uint64_t>& seeds) {
  std::vector<GridRun> runs;
  for (std::size_t input = 0; input < seeds.size(); ++input) {
    const std::uint64_t seed = seeds[input];
    auto spec =
        std::make_shared<saga::exp::ExperimentSpec>(load_experiment_spec("pisa_chains.json", seed));
    const saga::exp::CellPlan plan = saga::exp::enumerate_cells(*spec);
    runs.push_back({{plan.roster, spec->pisa.to_options(), spec->seed},
                    [spec](saga::ThreadPool& pool) {
                      std::ostringstream sink;
                      saga::exp::RunOptions options;
                      options.pool = &pool;
                      return saga::exp::run_experiment(*spec, sink, options).pairwise.ratio;
                    },
                    input});
  }
  return runs;
}

/// pisa_workflows: the @app-specific roster on the srasearch and blast
/// workflows at CCR 1, one restart per cell.
std::vector<GridRun> setup_workflows(const std::vector<std::uint64_t>& seeds) {
  saga::exp::ExperimentSpec roster_spec;
  roster_spec.schedulers = {"@app-specific"};
  const std::vector<std::string> roster = roster_spec.resolved_schedulers();
  for (const auto& name : roster) (void)saga::SchedulerRegistry::instance().make(name, 0);
  std::vector<GridRun> runs;
  for (std::size_t input = 0; input < seeds.size(); ++input) {
    const std::uint64_t seed = seeds[input];
    for (const char* app : {"srasearch", "blast"}) {
      Grid g{roster, saga::pisa::app_specific_options(app, 1.0, seed), seed};
      g.options.restarts = 1;
      runs.push_back({g, [g](saga::ThreadPool& pool) {
                        saga::pisa::PairwiseOptions options;
                        options.pisa = g.options;
                        options.pool = &pool;
                        return saga::pisa::pairwise_compare(g.roster, options, g.seed).ratio;
                      },
                      input});
    }
  }
  return runs;
}

// ---------------------------------------------------------------- replay

/// Counts from the replay's AnnealResults and objective calls.
struct Counts {
  std::size_t iterations = 0;
  std::size_t evaluations = 0;
  std::size_t accepted = 0;
  std::size_t struct_steps = 0;

  Counts& operator+=(const Counts& o) {
    iterations += o.iterations;
    evaluations += o.evaluations;
    accepted += o.accepted;
    struct_steps += o.struct_steps;
    return *this;
  }
};

/// One replayed cell: its counts, its adversarial instance and its PERTURB
/// configuration (the layer samples draw on the last two).
struct CellStats {
  Counts counts;
  ProblemInstance best;
  saga::pisa::PerturbationConfig config;
};

struct SpanNames {
  std::uint32_t cell = 0;
  std::uint32_t anneal = 0;
  std::uint32_t sample = 0;
  std::uint32_t ranks = 0;
  std::uint32_t eft_row = 0;
  std::uint32_t patch_weight = 0;
  std::uint32_t patch_struct = 0;
  std::vector<std::uint32_t> plan;  // per roster index
};

SpanNames intern_names(Tracer& tracer, const std::vector<std::string>& roster) {
  SpanNames n;
  n.cell = tracer.intern("core.pairwise.cell");
  n.anneal = tracer.intern("core.anneal.run");
  n.sample = tracer.intern("layer.sample");
  n.ranks = tracer.intern("sched.ranks.upward_ranks");
  n.eft_row = tracer.intern("sched.timeline.eft_row");
  n.patch_weight = tracer.intern("graph.view.patch_weight");
  n.patch_struct = tracer.intern("graph.view.patch_struct");
  for (const auto& s : roster) n.plan.push_back(tracer.intern("schedulers.plan_makespan." + s));
  return n;
}

/// Replays one grid cell by cell, exactly as run_pisa builds each cell.
Matrix replay_grid(const Grid& g, saga::ThreadPool& pool, Tracer& tracer, const SpanNames& names,
                   std::uint64_t op_base, std::vector<CellStats>& stats) {
  const std::size_t n = g.roster.size();
  struct Cell {
    std::size_t row;
    std::size_t col;
  };
  std::vector<Cell> cells;
  for (std::size_t row = 0; row < n; ++row) {
    for (std::size_t col = 0; col < n; ++col) {
      if (row != col) cells.push_back({row, col});
    }
  }
  Matrix ratio(n, std::vector<double>(n, std::numeric_limits<double>::quiet_NaN()));
  stats.assign(cells.size(), CellStats{});
  const auto& registry = saga::SchedulerRegistry::instance();

  pool.parallel_for(cells.size(), [&](std::size_t k) {
    thread_local saga::TimelineArena arena;
    const auto [row, col] = cells[k];
    const std::uint64_t op = op_base + k;
    CellStats& cs = stats[k];
    ScopedSpan cell_span(&tracer, names.cell, 0, op);

    const saga::pisa::CellSeeds seeds = saga::pisa::pairwise_cell_seeds(g.seed, row, col);
    const auto baseline = registry.make(g.roster[row], seeds.baseline);
    const auto target = registry.make(g.roster[col], seeds.target);
    const auto reqs = saga::pisa::combine(target->requirements(), baseline->requirements());
    cs.config = g.options.config;
    saga::pisa::apply_requirements(cs.config, reqs);

    saga::pisa::AnnealResult best;
    best.best_ratio = -std::numeric_limits<double>::infinity();
    for (std::size_t run = 0; run < g.options.restarts; ++run) {
      const std::uint64_t run_seed = saga::derive_seed(seeds.anneal, {0x9155aULL, run});
      const std::uint64_t initial_seed = saga::derive_seed(run_seed, {0x1417ULL});
      ProblemInstance initial = g.options.make_initial
                                    ? g.options.make_initial(initial_seed)
                                    : saga::pisa::random_chain_instance(initial_seed);
      saga::pisa::normalize_instance(initial, reqs);

      std::int64_t target_ns = 0;
      std::int64_t baseline_ns = 0;
      std::size_t calls = 0;
      saga::VersionStamp previous_structure = 0;
      const auto objective = [&](const ProblemInstance& inst, saga::TimelineArena& eval) {
        const std::int64_t t0 = now_ns();
        const double m_target = target->plan_makespan(inst, &eval);
        const std::int64_t t1 = now_ns();
        const double m_baseline = baseline->plan_makespan(inst, &eval);
        const std::int64_t t2 = now_ns();
        target_ns += t1 - t0;
        baseline_ns += t2 - t1;
        // A structure stamp is never reused, so a change since the previous
        // evaluation means a dependency was added or removed in between.
        const saga::VersionStamp structure = inst.graph.structure_stamp();
        if (calls > 0 && structure != previous_structure) ++cs.counts.struct_steps;
        previous_structure = structure;
        ++calls;
        // Exactly pisa::makespan_ratio.
        if (m_baseline == 0.0) {
          return m_target == 0.0 ? 1.0 : std::numeric_limits<double>::infinity();
        }
        return m_target / m_baseline;
      };
      std::uint64_t anneal_id = 0;
      saga::pisa::AnnealResult result;
      {
        ScopedSpan anneal_span(&tracer, names.anneal, cell_span.id(), op);
        anneal_id = anneal_span.id();
        result = saga::pisa::anneal_objective(
            saga::pisa::ArenaObjective(objective), initial, cs.config, g.options.params,
            saga::derive_seed(run_seed, {0xa22eaULL}), &arena);
      }
      tracer.aggregate({anneal_id, op, names.plan[col], calls, target_ns});
      tracer.aggregate({anneal_id, op, names.plan[row], calls, baseline_ns});
      cs.counts.iterations += result.iterations;
      cs.counts.evaluations += result.evaluations;
      cs.counts.accepted += result.accepted;
      if (result.best_ratio > best.best_ratio) best = std::move(result);
    }
    ratio[row][col] = best.best_ratio;
    cs.best = std::move(best.best_instance);
  });
  return ratio;
}

/// The InstanceView patch the annealer makes for a recorded perturbation
/// (apply) or for its undo.
void patch_view(saga::InstanceView& view, const ProblemInstance& inst,
                const saga::pisa::AppliedPerturbation& p, bool undo) {
  const double weight = undo ? p.before : p.after;
  switch (p.op) {
    case PerturbationOp::kChangeNetworkNodeWeight: view.patch_node_speed(inst, p.a, weight); break;
    case PerturbationOp::kChangeNetworkEdgeWeight:
      view.patch_link_strength(inst, p.a, p.b, weight);
      break;
    case PerturbationOp::kChangeTaskWeight: view.patch_task_cost(inst, p.a, weight); break;
    case PerturbationOp::kChangeDependencyWeight:
      view.patch_dependency_cost(inst, p.a, p.b, weight);
      break;
    case PerturbationOp::kAddDependency:
      if (undo) {
        view.patch_remove_dependency(inst, p.a, p.b);
      } else {
        view.patch_add_dependency(inst, p.a, p.b, p.after);
      }
      break;
    case PerturbationOp::kRemoveDependency:
      if (undo) {
        view.patch_add_dependency(inst, p.a, p.b, p.before);
      } else {
        view.patch_remove_dependency(inst, p.a, p.b);
      }
      break;
  }
}

/// Layer-function spans on a seeded sample of the replay's own adversarial
/// instances: upward ranks, one eft_row sweep, and the view patches for
/// perturbations drawn with the cell's own PERTURB configuration.
void sample_layers(const std::vector<CellStats>& cells, std::uint64_t seed, Tracer& tracer,
                   const SpanNames& names, std::uint64_t op_base) {
  constexpr std::size_t kSamples = 16;
  constexpr std::uint64_t kRankReps = 16;
  constexpr std::uint64_t kSweepReps = 4;
  constexpr std::size_t kPerturbations = 64;
  saga::Rng pick(saga::derive_seed(seed, {0x5a3b1eULL}));
  saga::TimelineArena arena;
  std::vector<double> ranks;
  for (std::size_t s = 0; s < std::min(kSamples, cells.size()); ++s) {
    const auto k = static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<std::int64_t>(cells.size()) - 1));
    const std::uint64_t op = op_base + k;
    ScopedSpan sample(&tracer, names.sample, 0, op);
    ProblemInstance inst = cells[k].best;
    const saga::InstanceView view(inst);

    std::int64_t start = now_ns();
    for (std::uint64_t r = 0; r < kRankReps; ++r) saga::upward_ranks(view, ranks);
    tracer.aggregate({sample.id(), op, names.ranks, kRankReps, now_ns() - start});

    std::int64_t eft_ns = 0;
    std::uint64_t eft_calls = 0;
    for (std::uint64_t r = 0; r < kSweepReps; ++r) {
      saga::TimelineBuilder builder(view, &arena);
      for (const saga::TaskId t : view.topological_order()) {
        const std::int64_t t0 = now_ns();
        const auto row = builder.eft_row(t, true);
        eft_ns += now_ns() - t0;
        ++eft_calls;
        const auto best = static_cast<saga::NodeId>(
            std::min_element(row.finish.begin(), row.finish.end()) - row.finish.begin());
        const double best_start = row.start[best];
        builder.place(t, best, best_start);
      }
    }
    tracer.aggregate({sample.id(), op, names.eft_row, eft_calls, eft_ns});

    saga::InstanceView patched(inst);
    saga::Rng rng(saga::derive_seed(seed, {0x9a7c4ULL, s}));
    std::int64_t weight_ns = 0;
    std::int64_t struct_ns = 0;
    std::uint64_t weight_calls = 0;
    std::uint64_t struct_calls = 0;
    for (std::size_t j = 0; j < kPerturbations; ++j) {
      const auto applied = saga::pisa::perturb_in_place_recorded(inst, cells[k].config, rng);
      if (!applied) continue;
      const bool structural = applied->op == PerturbationOp::kAddDependency ||
                              applied->op == PerturbationOp::kRemoveDependency;
      std::int64_t t0 = now_ns();
      patch_view(patched, inst, *applied, false);
      std::int64_t spent = now_ns() - t0;
      saga::pisa::undo_perturbation(inst, *applied);
      t0 = now_ns();
      patch_view(patched, inst, *applied, true);
      spent += now_ns() - t0;
      (structural ? struct_ns : weight_ns) += spent;
      (structural ? struct_calls : weight_calls) += 2;
    }
    if (weight_calls > 0) {
      tracer.aggregate({sample.id(), op, names.patch_weight, weight_calls, weight_ns});
    }
    if (struct_calls > 0) {
      tracer.aggregate({sample.id(), op, names.patch_struct, struct_calls, struct_ns});
    }
  }
}

/// Per-layer metrics from the replay's spans and counts.
void report_layers(Report& report, Tracer& tracer, const Counts& counts,
                   double replay_wall_s, std::size_t threads) {
  const auto spans = tracer.spans();
  const auto aggregates = tracer.aggregates();
  const auto& names = tracer.names();
  const auto self = self_times(spans, aggregates);
  const std::uint32_t cell_name = tracer.intern("core.pairwise.cell");
  const std::uint32_t anneal_name = tracer.intern("core.anneal.run");

  std::vector<double> cell_ms;
  double cell_ns_total = 0.0;
  double anneal_ns = 0.0;
  double anneal_self_ns = 0.0;
  for (const Span& s : spans) {
    if (s.name == cell_name) {
      cell_ms.push_back(static_cast<double>(s.duration_ns()) / 1e6);
      cell_ns_total += static_cast<double>(s.duration_ns());
    } else if (s.name == anneal_name) {
      anneal_ns += static_cast<double>(s.duration_ns());
      anneal_self_ns += static_cast<double>(self.at(s.id));
    }
  }
  std::map<std::string, std::pair<double, double>> per_name;  // total ns, calls
  for (const Aggregate& a : aggregates) {
    auto& [total, calls] = per_name[names[a.name]];
    total += static_cast<double>(a.total_ns);
    calls += static_cast<double>(a.count);
  }
  const auto iterations = static_cast<double>(counts.iterations);
  const auto evaluations = static_cast<double>(counts.evaluations);
  const auto accepted = static_cast<double>(counts.accepted);
  const auto struct_steps = static_cast<double>(counts.struct_steps);

  report.metric("core.anneal.self_ns_per_step", anneal_self_ns / iterations, "ns");
  report.metric("core.anneal.struct_step_frac", struct_steps / iterations, "frac");
  report.metric("core.anneal.evals_per_step", evaluations / iterations, "count");
  report.metric("core.anneal.accept_frac", accepted / iterations, "frac");
  report.metric("core.pairwise.cell_ms_p50", median(cell_ms), "ms");
  report.metric("core.pairwise.cell_ms_max", *std::max_element(cell_ms.begin(), cell_ms.end()),
                "ms");
  report.metric("core.pool.busy_frac",
                cell_ns_total / (static_cast<double>(threads) * replay_wall_s * 1e9), "frac");

  double plan_ns = 0.0;
  double plan_calls = 0.0;
  const std::string plan_prefix = "schedulers.plan_makespan.";
  for (const auto& [name, tc] : per_name) {
    if (name.rfind(plan_prefix, 0) != 0) continue;
    plan_ns += tc.first;
    plan_calls += tc.second;
    report.metric("schedulers.plan_ns." + name.substr(plan_prefix.size()), tc.first / tc.second,
                  "ns");
  }
  report.metric("schedulers.plan_ns", plan_ns / plan_calls, "ns");
  report.metric("schedulers.plan_frac", plan_ns / anneal_ns, "frac");

  for (const auto& [span_name, metric] :
       {std::pair{"sched.ranks.upward_ranks", "sched.ranks.upward_ns"},
        std::pair{"sched.timeline.eft_row", "sched.timeline.eft_row_ns"},
        std::pair{"graph.view.patch_weight", "graph.view.patch_weight_ns"},
        std::pair{"graph.view.patch_struct", "graph.view.patch_struct_ns"}}) {
    const auto it = per_name.find(span_name);
    if (it != per_name.end()) report.metric(metric, it->second.first / it->second.second, "ns");
  }
  report.detail("anneal_iterations", Json::number(iterations));
}

using Setup = std::vector<GridRun> (*)(const std::vector<std::uint64_t>&);

Report run_pisa(const Context& ctx, Setup setup) {
  Report report;
  const std::size_t threads = kExperimentThreads;

  // Every grid must reproduce its first run bit for bit; at the default
  // seed the first pass must also match the pinned digest.
  std::vector<Matrix> reference;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto check = [&](std::size_t input, const Matrix& grid) {
    attempted += grid.size() * (grid.size() - 1);
    if (reference.size() == input) {
      reference.push_back(grid);
      return;
    }
    const std::size_t differ = differing_cells(grid, reference[input]);
    if (differ > 0) report.mismatch(std::to_string(differ) + " cells differ from the first run");
    failed += differ;
  };

  // Set-up: spec load and validation (or the options) for every input set
  // and pool start. The first set-up serves the run; the untraced run
  // times one more after every operation and discards it (see setup_s).
  std::vector<double> setups;
  const auto set_up = [&](std::vector<GridRun>& in, std::unique_ptr<saga::ThreadPool>& p) {
    const auto start = Clock::now();
    in = setup(input_seeds(ctx.args.seed));
    p = std::make_unique<saga::ThreadPool>(threads);
    setups.push_back(seconds_between(start, Clock::now()));
  };
  std::vector<GridRun> inputs;
  std::unique_ptr<saga::ThreadPool> pool;
  set_up(inputs, pool);
  // Untimed warm-up (the workers' arenas allocated, caches filled): the
  // first input set's first run, which every later run of it must repeat.
  for (std::size_t i = 0; i < inputs.size() && inputs[i].input == 0; ++i) {
    check(i, inputs[i].run(*pool));
  }
  std::size_t steps = 0;
  for (const GridRun& g : inputs) steps += steps_of(g.grid);
  const auto pin_first_pass = [&] {
    const std::string digest = digest_of(reference);
    report.detail("digest", Json::string(digest));
    if (ctx.at_default_seed() && digest != ctx.string("pinned_digest")) {
      report.mismatch("ratio grid digest " + digest + " != pinned " + ctx.string("pinned_digest"));
      failed += 1;
    }
  };

  const std::size_t sets = inputs.back().input + 1;
  const std::size_t min_passes = (samples_for_tail(kExperimentTail) + sets - 1) / sets;
  if (!ctx.args.trace) {
    std::vector<double> op_ms;  // one sample per input set: its grids' wall time
    const std::vector<double> walls = timed_passes(
        ctx.args.seconds, min_passes, [&](std::size_t pass) {
          double wall = 0.0;
          double op_wall = 0.0;
          for (std::size_t i = 0; i < inputs.size(); ++i) {
            const auto start = Clock::now();
            const Matrix grid = inputs[i].run(*pool);
            const double s = seconds_between(start, Clock::now());
            wall += s;
            op_wall += s;
            if (i + 1 == inputs.size() || inputs[i + 1].input != inputs[i].input) {
              op_ms.push_back(op_wall * 1e3);
              op_wall = 0.0;
              std::vector<GridRun> spare_inputs;
              std::unique_ptr<saga::ThreadPool> spare_pool;
              set_up(spare_inputs, spare_pool);
            }
            check(i, grid);
          }
          if (pass == 0) pin_first_pass();
          return wall;
        });
    std::vector<double> rates;
    for (const double s : walls) rates.push_back(static_cast<double>(steps) / s);
    report.phase("grids", attempted, failed);
    report.metric("setup_s", median(setups), "s");
    report.metric("throughput_per_s", median(rates), "1/s");
    const Quartiles q = quartiles(rates.size() > 1 ? rates : std::vector<double>{rates[0], rates[0]});
    report.detail("pass_throughput_quartiles",
                  Json::array({Json::number(q.q1), Json::number(q.q2), Json::number(q.q3)}));
    report.metric("latency_p50_ms", median(op_ms), "ms");
    if (const auto tail = supported_percentile(op_ms, kExperimentTail)) {
      report.metric("latency_tail_ms", *tail, "ms");
    }
    report.metric("peak_rss_mib", peak_rss_mib_self(), "MiB");
    report.detail("passes", Json::number(static_cast<double>(walls.size())));
    report.detail("steps_per_pass", Json::number(static_cast<double>(steps)));
    return report;
  }

  // Traced: each grid runs untraced and is then replayed with spans, so
  // the overhead ratio compares the same work under the same conditions.
  Tracer& tracer = *ctx.tracer;
  const SpanNames names = intern_names(tracer, inputs.front().grid.roster);
  std::vector<double> overhead;
  Counts totals;
  std::vector<CellStats> last_cells;
  double replay_wall = 0.0;
  std::uint64_t replay_attempted = 0;
  std::uint64_t replay_failed = 0;
  std::uint64_t op_base = 0;
  (void)timed_passes(ctx.args.seconds, 1, [&](std::size_t pass) {
    double untraced_s = 0.0;
    double traced_s = 0.0;
    std::size_t pass_iterations = 0;
    last_cells.clear();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const auto u0 = Clock::now();
      const Matrix untraced = inputs[i].run(*pool);
      untraced_s += seconds_between(u0, Clock::now());
      check(i, untraced);

      std::vector<CellStats> stats;
      const auto t0 = Clock::now();
      const Matrix replayed = replay_grid(inputs[i].grid, *pool, tracer, names, op_base, stats);
      traced_s += seconds_between(t0, Clock::now());
      op_base += stats.size();
      replay_attempted += stats.size();
      const std::size_t differ = differing_cells(replayed, untraced);
      if (differ > 0) report.mismatch(std::to_string(differ) + " replayed cells differ");
      replay_failed += differ;
      for (auto& c : stats) {
        pass_iterations += c.counts.iterations;
        totals += c.counts;
        last_cells.push_back(std::move(c));
      }
    }
    if (pass == 0) pin_first_pass();
    if (pass_iterations != steps) {
      report.mismatch("replay ran " + std::to_string(pass_iterations) +
                      " annealing steps, the pinned count is " + std::to_string(steps));
      replay_failed += 1;
    }
    replay_wall += traced_s;
    overhead.push_back(traced_s / untraced_s - 1.0);
    return untraced_s + traced_s;
  });
  report.phase("untraced_grids", attempted, failed);
  report.phase("traced_replay", replay_attempted, replay_failed);
  sample_layers(last_cells, ctx.args.seed, tracer, names, op_base);
  report_layers(report, tracer, totals, replay_wall, threads);
  report.metric("trace_overhead_frac", median(overhead), "frac");
  report.detail("traced_passes", Json::number(static_cast<double>(overhead.size())));
  return report;
}

}  // namespace

Report run_pisa_chains(const Context& ctx) { return run_pisa(ctx, setup_chains); }
Report run_pisa_workflows(const Context& ctx) { return run_pisa(ctx, setup_workflows); }

}  // namespace perfbench
