#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/annealer.hpp"
#include "core/perturbation.hpp"
#include "datasets/registry.hpp"
#include "graph/instance_view.hpp"
#include "sched/arena.hpp"
#include "sched/ranks.hpp"
#include "sched/ready_rows.hpp"
#include "sched/registry.hpp"
#include "sched/timeline.hpp"
#include "schedulers/bil.hpp"
#include "schedulers/etf.hpp"
#include "schedulers/flb.hpp"
#include "schedulers/gdl.hpp"
#include "schedulers/maxmin.hpp"
#include "schedulers/minmin.hpp"
#include "schedulers/wba.hpp"

/// Kernel property suite: the row-wise candidate API must be bit-identical
/// to the scalar queries it replaces, the ready-row table must pick exactly
/// what the per-step ready-set sweeps picked, the annealer's O(1) view
/// patches must be indistinguishable from a fresh sync, and the annealer's
/// two entry points must follow the same trajectory.

namespace saga {
namespace {

/// Random layered DAG + heterogeneous network (same shape the kernel
/// bench uses, smaller so the walk covers many graphs).
ProblemInstance fuzzed_instance(std::size_t tasks, std::size_t nodes, std::uint64_t seed) {
  Rng rng(seed);
  ProblemInstance inst;
  std::vector<TaskId> previous;
  std::vector<TaskId> current;
  for (std::size_t i = 0; i < tasks; ++i) {
    const TaskId t = inst.graph.add_task(rng.uniform(0.0, 2.0));
    if (!previous.empty()) {
      const auto preds = std::min<std::size_t>(previous.size(), 1 + rng.index(3));
      for (std::size_t p = 0; p < preds; ++p) {
        // Occasional zero-size transfers exercise comm_time's early-out.
        const double cost = rng.index(4) == 0 ? 0.0 : rng.uniform(0.1, 1.0);
        inst.graph.add_dependency(previous[rng.index(previous.size())], t, cost);
      }
    }
    current.push_back(t);
    if (current.size() == 3) {
      previous = std::move(current);
      current.clear();
    }
  }
  inst.network = Network(nodes);
  for (NodeId v = 0; v < nodes; ++v) inst.network.set_speed(v, rng.uniform(0.2, 2.0));
  for (NodeId a = 0; a < nodes; ++a) {
    for (NodeId b = a + 1; b < nodes; ++b) {
      inst.network.set_strength(a, b, rng.uniform(0.2, 2.0));
    }
  }
  return inst;
}

bool same_instance(const ProblemInstance& a, const ProblemInstance& b) {
  if (a.graph.task_count() != b.graph.task_count()) return false;
  if (a.graph.dependency_count() != b.graph.dependency_count()) return false;
  for (TaskId t = 0; t < a.graph.task_count(); ++t) {
    if (a.graph.cost(t) != b.graph.cost(t)) return false;
    const auto sa = a.graph.successors(t);
    const auto sb = b.graph.successors(t);
    if (!std::equal(sa.begin(), sa.end(), sb.begin(), sb.end())) return false;
    for (const TaskId s : sa) {
      if (a.graph.dependency_cost(t, s) != b.graph.dependency_cost(t, s)) return false;
    }
  }
  if (a.network.node_count() != b.network.node_count()) return false;
  for (NodeId v = 0; v < a.network.node_count(); ++v) {
    if (a.network.speed(v) != b.network.speed(v)) return false;
    for (NodeId u = 0; u < a.network.node_count(); ++u) {
      if (a.network.strength(v, u) != b.network.strength(v, u)) return false;
    }
  }
  return true;
}

// --- eft_row == scalar queries, at every construction step -----------------

TEST(RowWiseCandidates, MatchesScalarQueriesMidConstruction) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto inst = fuzzed_instance(4 + seed % 9, 2 + seed % 5, 100 + seed);
    Rng rng(7 * seed + 1);
    TimelineArena arena;
    TimelineBuilder builder(inst, &arena);
    const std::size_t nodes = inst.network.node_count();
    while (!builder.complete()) {
      const auto ready = builder.ready_tasks();
      ASSERT_FALSE(ready.empty());
      for (const TaskId t : ready) {
        for (const bool insertion : {false, true}) {
          const auto row = builder.eft_row(t, insertion);
          ASSERT_EQ(row.start.size(), nodes);
          for (NodeId v = 0; v < nodes; ++v) {
            // Bit-exact: the sweep must reproduce the scalar path exactly.
            EXPECT_EQ(row.start[v], builder.earliest_start(t, v, insertion))
                << "seed " << seed << " task " << t << " node " << v << " ins " << insertion;
            EXPECT_EQ(row.finish[v], builder.earliest_finish(t, v, insertion));
            EXPECT_EQ(builder.data_ready_row(t)[v], builder.data_ready_time(t, v));
          }
        }
      }
      // Random placement (random ready task, random node, either mode)
      // drives the walk through diverse partial schedules.
      const TaskId t = ready[rng.index(ready.size())];
      const auto v = static_cast<NodeId>(rng.index(nodes));
      builder.place_earliest(t, v, rng.index(2) == 0);
    }
  }
}

std::vector<TaskId> brute_force_ready(const TimelineBuilder& builder) {
  std::vector<TaskId> ready;
  for (TaskId t = 0; t < builder.view().task_count(); ++t) {
    if (builder.ready(t)) ready.push_back(t);
  }
  return ready;
}

std::vector<TaskId> as_vector(std::span<const TaskId> tasks) {
  return {tasks.begin(), tasks.end()};
}

TEST(RowWiseCandidates, ReadyTasksMatchesBruteForce) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto inst = fuzzed_instance(12 + 6 * seed, 3, 5 + seed);
    const std::size_t nodes = inst.network.node_count();
    Rng rng(3 + seed);
    TimelineArena arena;
    TimelineBuilder builder(inst, &arena);
    // The first query may come after a few placements: the list is built
    // then, and kept by every place() after it.
    const std::size_t first_query = rng.index(4);
    while (!builder.complete()) {
      const auto expected = brute_force_ready(builder);
      if (builder.placed_count() >= first_query) {
        ASSERT_EQ(as_vector(builder.ready_tasks()), expected) << "seed " << seed;
      }
      if (rng.index(3) == 0) {
        // An exact-search branch: the copy (or assigned-over builder)
        // keeps its own list through its own placements and leaves the
        // original's alone.
        std::optional<TimelineBuilder> branch;
        if (rng.index(2) == 0) {
          branch.emplace(inst, &arena);
          *branch = builder;
        } else {
          branch.emplace(builder);
        }
        while (!branch->complete()) {
          const auto branch_ready = brute_force_ready(*branch);
          ASSERT_EQ(as_vector(branch->ready_tasks()), branch_ready) << "seed " << seed;
          branch->place_earliest(branch_ready[rng.index(branch_ready.size())],
                                 static_cast<NodeId>(rng.index(nodes)), rng.index(2) == 0);
        }
        EXPECT_TRUE(branch->ready_tasks().empty());
        ASSERT_EQ(brute_force_ready(builder), expected);
      }
      builder.place_earliest(expected[rng.index(expected.size())],
                             static_cast<NodeId>(rng.index(nodes)), rng.index(2) == 0);
    }
    EXPECT_TRUE(builder.ready_tasks().empty());
  }

  // A ReadyRows table reads the builder's list; after every placement the
  // list and every ready row must be current.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto inst = fuzzed_instance(30, 2 + 3 * seed, 40 + seed);
    const std::size_t nodes = inst.network.node_count();
    Rng rng(11 + seed);
    TimelineArena arena;
    TimelineBuilder builder(inst, &arena);
    ReadyRows rows(builder, [](TaskId, NodeId, double, double finish) { return finish; });
    while (!builder.complete()) {
      const auto expected = brute_force_ready(builder);
      ASSERT_EQ(as_vector(rows.tasks()), expected) << "seed " << seed;
      ASSERT_EQ(as_vector(builder.ready_tasks()), expected) << "seed " << seed;
      for (const TaskId u : expected) {
        double best = std::numeric_limits<double>::infinity();
        NodeId best_node = 0;
        for (NodeId v = 0; v < nodes; ++v) {
          ASSERT_EQ(rows.start(u, v), builder.earliest_start(u, v, false)) << "task " << u;
          ASSERT_EQ(rows.finish(u, v), builder.earliest_finish(u, v, false)) << "task " << u;
          if (rows.finish(u, v) < best) {
            best = rows.finish(u, v);
            best_node = v;
          }
        }
        ASSERT_EQ(rows.best_key(u), best) << "task " << u;
        ASSERT_EQ(rows.best_node(u), best_node) << "task " << u;
      }
      rows.place(expected[rng.index(expected.size())], static_cast<NodeId>(rng.index(nodes)));
    }
    EXPECT_TRUE(rows.tasks().empty());
  }
}

// --- ready-row table == the per-step ready-set sweeps it replaced ---------

// The selection loops of MinMin, MaxMin, ETF, GDL, BIL, FLB and WBA as they
// were before the ready-row table: every step re-sweeps eft_row for every
// ready task. Kept as the oracle for the incremental table.
namespace sweep {

void minmin(TimelineBuilder& builder) {
  const std::size_t nodes = builder.view().node_count();
  while (!builder.complete()) {
    TaskId best_task = 0;
    NodeId best_node = 0;
    double best_start = 0.0;
    double best_finish = std::numeric_limits<double>::infinity();
    for (TaskId t : builder.ready_tasks()) {
      const auto row = builder.eft_row(t, /*insertion=*/false);
      for (NodeId v = 0; v < nodes; ++v) {
        if (row.finish[v] < best_finish) {
          best_finish = row.finish[v];
          best_start = row.start[v];
          best_task = t;
          best_node = v;
        }
      }
    }
    builder.place(best_task, best_node, best_start);
  }
}

void maxmin(TimelineBuilder& builder) {
  while (!builder.complete()) {
    TaskId chosen_task = 0;
    NodeId chosen_node = 0;
    double chosen_start = 0.0;
    double chosen_mct = -1.0;
    bool found = false;
    for (TaskId t : builder.ready_tasks()) {
      const auto choice = builder.best_eft(t, /*insertion=*/false);
      if (!found || choice.finish > chosen_mct) {
        chosen_mct = choice.finish;
        chosen_start = choice.start;
        chosen_task = t;
        chosen_node = choice.node;
        found = true;
      }
    }
    builder.place(chosen_task, chosen_node, chosen_start);
  }
}

void etf(TimelineBuilder& builder) {
  const InstanceView& view = builder.view();
  std::vector<double> level;
  static_levels(view, level);
  while (!builder.complete()) {
    TaskId best_task = 0;
    NodeId best_node = 0;
    double best_start = std::numeric_limits<double>::infinity();
    double best_level = -1.0;
    for (TaskId t : builder.ready_tasks()) {
      const auto row = builder.eft_row(t, /*insertion=*/false);
      for (NodeId v = 0; v < view.node_count(); ++v) {
        const double start = row.start[v];
        const bool better =
            start < best_start ||
            (start == best_start && (level[t] > best_level ||
                                     (level[t] == best_level && t < best_task)));
        if (better) {
          best_start = start;
          best_level = level[t];
          best_task = t;
          best_node = v;
        }
      }
    }
    builder.place(best_task, best_node, best_start);
  }
}

void gdl(TimelineBuilder& builder) {
  const InstanceView& view = builder.view();
  std::vector<double> sl;
  std::vector<double> mean_exec;
  static_levels(view, sl);
  mean_exec_times(view, mean_exec);
  while (!builder.complete()) {
    TaskId best_task = 0;
    NodeId best_node = 0;
    double best_start = 0.0;
    double best_dl = -std::numeric_limits<double>::infinity();
    bool found = false;
    for (TaskId t : builder.ready_tasks()) {
      const auto row = builder.eft_row(t, /*insertion=*/false);
      for (NodeId v = 0; v < view.node_count(); ++v) {
        const double delta = mean_exec[t] - builder.exec_time(t, v);
        const double dl = sl[t] - row.start[v] + delta;
        if (!found || dl > best_dl || (dl == best_dl && t < best_task)) {
          best_dl = dl;
          best_task = t;
          best_node = v;
          best_start = row.start[v];
          found = true;
        }
      }
    }
    builder.place(best_task, best_node, best_start);
  }
}

void bil(TimelineBuilder& builder) {
  const InstanceView& view = builder.view();
  const std::size_t n_nodes = view.node_count();
  // The BIL table, by the scalar definition: exec time plus the worst
  // successor's best continuation.
  std::vector<double> table(view.task_count() * n_nodes, 0.0);
  const auto order = view.topological_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId t = *it;
    for (NodeId v = 0; v < n_nodes; ++v) {
      double tail = 0.0;
      for (const auto& edge : view.successors(t)) {
        double best = table[edge.task * n_nodes + v];
        for (NodeId v2 = 0; v2 < n_nodes; ++v2) {
          best = std::min(best, table[edge.task * n_nodes + v2] +
                                    view.comm_time(edge.cost, v, v2));
        }
        tail = std::max(tail, best);
      }
      table[t * n_nodes + v] = view.exec_time(t, v) + tail;
    }
  }
  while (!builder.complete()) {
    TaskId best_task = 0;
    NodeId best_node = 0;
    double best_start = 0.0;
    double best_key = -std::numeric_limits<double>::infinity();
    bool found = false;
    for (TaskId t : builder.ready_tasks()) {
      const auto row = builder.eft_row(t, /*insertion=*/false);
      const double* bil_row = table.data() + t * n_nodes;
      NodeId arg_node = 0;
      double arg_start = 0.0;
      double best_bim = std::numeric_limits<double>::infinity();
      for (NodeId v = 0; v < n_nodes; ++v) {
        const double bim = row.start[v] + bil_row[v];
        if (bim < best_bim) {
          best_bim = bim;
          arg_node = v;
          arg_start = row.start[v];
        }
      }
      if (!found || best_bim > best_key || (best_bim == best_key && t < best_task)) {
        best_key = best_bim;
        best_task = t;
        best_node = arg_node;
        best_start = arg_start;
        found = true;
      }
    }
    builder.place(best_task, best_node, best_start);
  }
}

void flb(TimelineBuilder& builder) {
  const InstanceView& view = builder.view();
  const auto enabling_node = [&](TaskId t) {
    NodeId enabler = 0;
    double last_arrival = -1.0;
    for (const auto& edge : view.predecessors(t)) {
      const auto& pa = builder.assignment_of(edge.task);
      double worst = pa.finish;
      for (NodeId v = 0; v < view.node_count(); ++v) {
        worst = std::max(worst, pa.finish + view.comm_time(edge.cost, pa.node, v));
      }
      if (worst > last_arrival) {
        last_arrival = worst;
        enabler = pa.node;
      }
    }
    return enabler;
  };
  while (!builder.complete()) {
    TaskId best_task = 0;
    NodeId best_node = 0;
    double best_finish = std::numeric_limits<double>::infinity();
    bool found = false;
    for (TaskId t : builder.ready_tasks()) {
      const auto avail = builder.node_available_row();
      NodeId idle_node = 0;
      for (NodeId v = 1; v < view.node_count(); ++v) {
        if (avail[v] < avail[idle_node]) idle_node = v;
      }
      const NodeId enabler = enabling_node(t);
      for (NodeId candidate : {idle_node, enabler}) {
        const double finish = builder.earliest_finish(t, candidate, /*insertion=*/false);
        if (!found || finish < best_finish || (finish == best_finish && t < best_task)) {
          best_finish = finish;
          best_task = t;
          best_node = candidate;
          found = true;
        }
      }
    }
    builder.place_earliest(best_task, best_node, /*insertion=*/false);
  }
}

void wba(TimelineBuilder& builder, std::uint64_t seed, double tolerance) {
  Rng rng(seed);
  const InstanceView& view = builder.view();
  std::vector<TaskId> opt_task;
  std::vector<NodeId> opt_node;
  std::vector<double> opt_increase;
  std::vector<std::size_t> candidates;
  while (!builder.complete()) {
    opt_task.clear();
    opt_node.clear();
    opt_increase.clear();
    double min_inc = std::numeric_limits<double>::infinity();
    double max_inc = -std::numeric_limits<double>::infinity();
    const double current = builder.current_makespan();
    for (TaskId t : builder.ready_tasks()) {
      const auto row = builder.eft_row(t, /*insertion=*/false);
      for (NodeId v = 0; v < view.node_count(); ++v) {
        const double increase = std::max(0.0, row.finish[v] - current);
        opt_task.push_back(t);
        opt_node.push_back(v);
        opt_increase.push_back(increase);
        min_inc = std::min(min_inc, increase);
        max_inc = std::max(max_inc, increase);
      }
    }
    const double band = min_inc + tolerance * (max_inc - min_inc);
    candidates.clear();
    for (std::size_t i = 0; i < opt_increase.size(); ++i) {
      if (opt_increase[i] <= band + 1e-15) candidates.push_back(i);
    }
    const std::size_t chosen = candidates[rng.index(candidates.size())];
    builder.place_earliest(opt_task[chosen], opt_node[chosen], /*insertion=*/false);
  }
}

}  // namespace sweep

/// Small instances built to tie: integer task costs in 0..3 (zero-cost
/// tasks included), integer edge costs in 0..3 (zero-cost edges
/// included), and homogeneous or 2-3-level node speeds and link strengths.
ProblemInstance tie_heavy_instance(Rng& rng) {
  const std::size_t tasks = 1 + rng.index(25);
  const std::size_t nodes = 1 + rng.index(6);
  ProblemInstance inst;
  for (std::size_t i = 0; i < tasks; ++i) {
    const TaskId t = inst.graph.add_task(static_cast<double>(rng.index(4)));
    if (t == 0) continue;
    const std::size_t preds = rng.index(4);
    for (std::size_t p = 0; p < preds; ++p) {
      const auto from = static_cast<TaskId>(rng.index(t));
      (void)inst.graph.add_dependency(from, t, static_cast<double>(rng.index(4)));
    }
  }
  static constexpr double kLevels[] = {1.0, 2.0, 4.0};
  const std::size_t speed_levels = 1 + rng.index(3);
  const std::size_t strength_levels = 1 + rng.index(3);
  inst.network = Network(nodes);
  for (NodeId v = 0; v < nodes; ++v) inst.network.set_speed(v, kLevels[rng.index(speed_levels)]);
  for (NodeId a = 0; a < nodes; ++a) {
    for (NodeId b = a + 1; b < nodes; ++b) {
      inst.network.set_strength(a, b, kLevels[rng.index(strength_levels)]);
    }
  }
  return inst;
}

/// Networks wider than BIL's sorted-scan cut-over (8 nodes), IoT-style:
/// edge, fog and cloud tiers with repeated speeds and link strengths drawn
/// from a few levels (ties everywhere) and infinite cloud-cloud links,
/// under a tie-heavy graph with zero-cost tasks and edges.
ProblemInstance wide_tiered_instance(Rng& rng, std::size_t nodes) {
  ProblemInstance inst;
  const std::size_t tasks = 8 + rng.index(17);
  for (std::size_t i = 0; i < tasks; ++i) {
    const TaskId t = inst.graph.add_task(static_cast<double>(rng.index(4)));
    if (t == 0) continue;
    const std::size_t preds = rng.index(4);
    for (std::size_t p = 0; p < preds; ++p) {
      const auto from = static_cast<TaskId>(rng.index(t));
      (void)inst.graph.add_dependency(from, t, static_cast<double>(rng.index(4)));
    }
  }
  static constexpr double kLevels[] = {1.0, 2.0, 4.0};
  const auto tier = [nodes](NodeId v) { return v < nodes / 2 ? 0 : (v < 3 * nodes / 4 ? 1 : 2); };
  inst.network = Network(nodes);
  for (NodeId v = 0; v < nodes; ++v) inst.network.set_speed(v, kLevels[tier(v)]);
  for (NodeId a = 0; a < nodes; ++a) {
    for (NodeId b = a + 1; b < nodes; ++b) {
      const bool cloud = tier(a) == 2 && tier(b) == 2;
      inst.network.set_strength(a, b, cloud ? std::numeric_limits<double>::infinity()
                                            : kLevels[rng.index(3)]);
    }
  }
  return inst;
}

struct SweepCase {
  std::string label;
  SchedulerPtr scheduler;
  std::function<void(TimelineBuilder&)> reference;
};

std::vector<SweepCase> sweep_cases(std::uint64_t wba_seed) {
  std::vector<SweepCase> cases;
  cases.push_back({"MinMin", std::make_unique<MinMinScheduler>(), sweep::minmin});
  cases.push_back({"MaxMin", std::make_unique<MaxMinScheduler>(), sweep::maxmin});
  cases.push_back({"ETF", std::make_unique<EtfScheduler>(), sweep::etf});
  cases.push_back({"GDL", std::make_unique<GdlScheduler>(), sweep::gdl});
  cases.push_back({"BIL", std::make_unique<BilScheduler>(), sweep::bil});
  cases.push_back({"FLB", std::make_unique<FlbScheduler>(), sweep::flb});
  for (const double tolerance : {0.0, 0.5, 1.0}) {
    cases.push_back({"WBA?tolerance=" + std::to_string(tolerance),
                     std::make_unique<WbaScheduler>(wba_seed, tolerance),
                     [wba_seed, tolerance](TimelineBuilder& builder) {
                       sweep::wba(builder, wba_seed, tolerance);
                     }});
  }
  return cases;
}

/// The scheduler's schedule (one-shot and through a warm arena) and its
/// plan_makespan must equal the reference sweep's, assignment for
/// assignment and bit for bit.
void expect_matches_sweep(const SweepCase& c, const ProblemInstance& inst, TimelineArena& arena,
                          const std::string& where) {
  TimelineBuilder builder(inst, &arena);
  c.reference(builder);
  const Schedule expected = builder.to_schedule();
  const double expected_makespan = builder.current_makespan();
  for (const Schedule& actual : {c.scheduler->schedule(inst, &arena),
                                 c.scheduler->schedule(inst, nullptr)}) {
    ASSERT_EQ(actual.size(), expected.size()) << c.label << " " << where;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const Assignment& a = actual.assignments()[i];
      const Assignment& e = expected.assignments()[i];
      ASSERT_EQ(a.task, e.task) << c.label << " " << where;
      ASSERT_EQ(a.node, e.node) << c.label << " " << where << " task " << e.task;
      ASSERT_EQ(a.start, e.start) << c.label << " " << where << " task " << e.task;
      ASSERT_EQ(a.finish, e.finish) << c.label << " " << where << " task " << e.task;
    }
  }
  EXPECT_EQ(c.scheduler->plan_makespan(inst, &arena), expected_makespan) << c.label << " " << where;
  EXPECT_EQ(c.scheduler->plan_makespan(inst, nullptr), expected_makespan)
      << c.label << " " << where;
}

TEST(ReadyRows, MatchesPerStepSweepsOnTieHeavyInstances) {
  const auto cases = sweep_cases(0x5a6a0001ULL);
  TimelineArena arena;
  Rng rng(2024);
  for (int i = 0; i < 2000; ++i) {
    const ProblemInstance inst = tie_heavy_instance(rng);
    for (const auto& c : cases) {
      expect_matches_sweep(c, inst, arena, "instance " + std::to_string(i));
      if (HasFatalFailure()) return;
    }
  }
  for (const std::size_t nodes : {9, 17, 64, 130}) {
    for (int i = 0; i < 6; ++i) {
      const ProblemInstance inst = wide_tiered_instance(rng, nodes);
      for (const auto& c : cases) {
        expect_matches_sweep(c, inst, arena,
                             std::to_string(nodes) + " nodes, instance " + std::to_string(i));
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(ReadyRows, MatchesPerStepSweepsOnWideWorkflow) {
  // srasearch fans out into a wide ready set, so many rows are rescanned.
  const auto source = datasets::DatasetRegistry::instance().make("srasearch?n=40", 1);
  const auto cases = sweep_cases(7);
  TimelineArena arena;
  for (std::size_t index = 0; index < 3; ++index) {
    const ProblemInstance inst = source->generate(index);
    for (const auto& c : cases) {
      expect_matches_sweep(c, inst, arena, "srasearch index " + std::to_string(index));
    }
  }
}

// --- patched view == freshly synced view -----------------------------------

void expect_view_matches_fresh(const InstanceView& view, const ProblemInstance& inst) {
  const InstanceView fresh(inst);
  ASSERT_TRUE(view.in_sync_with(inst));
  ASSERT_EQ(view.task_count(), fresh.task_count());
  ASSERT_EQ(view.node_count(), fresh.node_count());
  const auto topo_a = view.topological_order();
  const auto topo_b = fresh.topological_order();
  ASSERT_TRUE(std::equal(topo_a.begin(), topo_a.end(), topo_b.begin(), topo_b.end()));
  EXPECT_EQ(view.mean_inverse_speed(), fresh.mean_inverse_speed());
  EXPECT_EQ(view.mean_inverse_strength(), fresh.mean_inverse_strength());
  for (TaskId t = 0; t < view.task_count(); ++t) {
    EXPECT_EQ(view.task_cost(t), fresh.task_cost(t));
    const auto pa = view.predecessors(t);
    const auto pb = fresh.predecessors(t);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].task, pb[i].task);
      EXPECT_EQ(pa[i].cost, pb[i].cost);
    }
    const auto sa = view.successors(t);
    const auto sb = fresh.successors(t);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].task, sb[i].task);
      EXPECT_EQ(sa[i].cost, sb[i].cost);
    }
    for (NodeId v = 0; v < view.node_count(); ++v) {
      EXPECT_EQ(view.exec_time(t, v), fresh.exec_time(t, v));
      // The cached exec row, when present, must hold exactly the on-the-fly
      // quotients.
      if (const double* exec = view.exec_row_or_null(t)) {
        EXPECT_EQ(exec[v], fresh.exec_time(t, v));
      }
    }
    const std::size_t base = view.successors_base(t);
    for (std::size_t i = 0; i < sa.size(); ++i) {
      for (NodeId v = 0; v < view.node_count(); ++v) {
        if (const double* comm = view.comm_row_or_null(base + i, v)) {
          for (NodeId u = 0; u < view.node_count(); ++u) {
            EXPECT_EQ(comm[u], fresh.comm_time(sa[i].cost, v, u));
          }
        }
      }
    }
  }
}

TEST(ViewPatches, PerturbationWalkMatchesFreshSyncEveryStep) {
  auto config = pisa::PerturbationConfig::generic();
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    ProblemInstance state = pisa::random_chain_instance(31 + seed);
    TimelineArena arena;
    (void)arena.view_for(state);  // initial sync
    Rng rng(seed);
    for (int step = 0; step < 160; ++step) {
      ASSERT_TRUE(arena.view().in_sync_with(state));
      const auto applied = pisa::perturb_in_place_recorded(state, config, rng);
      if (!applied.has_value()) continue;
      // Apply the recorded perturbation through the patch API, exactly as
      // the annealer does.
      auto& view = arena.view();
      switch (applied->op) {
        case pisa::PerturbationOp::kChangeNetworkNodeWeight:
          view.patch_node_speed(state, applied->a, applied->after);
          break;
        case pisa::PerturbationOp::kChangeNetworkEdgeWeight:
          view.patch_link_strength(state, applied->a, applied->b, applied->after);
          break;
        case pisa::PerturbationOp::kChangeTaskWeight:
          view.patch_task_cost(state, applied->a, applied->after);
          break;
        case pisa::PerturbationOp::kChangeDependencyWeight:
          view.patch_dependency_cost(state, applied->a, applied->b, applied->after);
          break;
        case pisa::PerturbationOp::kAddDependency:
          view.patch_add_dependency(state, applied->a, applied->b, applied->after);
          break;
        case pisa::PerturbationOp::kRemoveDependency:
          view.patch_remove_dependency(state, applied->a, applied->b);
          break;
      }
      expect_view_matches_fresh(view, state);
      if (rng.index(2) == 0) {
        // Roll back, as a rejected candidate would, and re-verify.
        pisa::undo_perturbation(state, *applied);
        switch (applied->op) {
          case pisa::PerturbationOp::kChangeNetworkNodeWeight:
            view.patch_node_speed(state, applied->a, applied->before);
            break;
          case pisa::PerturbationOp::kChangeNetworkEdgeWeight:
            view.patch_link_strength(state, applied->a, applied->b, applied->before);
            break;
          case pisa::PerturbationOp::kChangeTaskWeight:
            view.patch_task_cost(state, applied->a, applied->before);
            break;
          case pisa::PerturbationOp::kChangeDependencyWeight:
            view.patch_dependency_cost(state, applied->a, applied->b, applied->before);
            break;
          case pisa::PerturbationOp::kAddDependency:
            view.patch_remove_dependency(state, applied->a, applied->b);
            break;
          case pisa::PerturbationOp::kRemoveDependency:
            view.patch_add_dependency(state, applied->a, applied->b, applied->before);
            break;
        }
        expect_view_matches_fresh(view, state);
      }
    }
  }
}

TEST(ViewPatches, MakespansThroughPatchedViewMatchFreshEvaluation) {
  const auto heft = SchedulerRegistry::instance().make("HEFT", 1);
  const auto cpop = SchedulerRegistry::instance().make("CPoP", 2);
  auto config = pisa::PerturbationConfig::generic();
  ProblemInstance state = pisa::random_chain_instance(5);
  TimelineArena arena;
  Rng rng(17);
  for (int step = 0; step < 120; ++step) {
    (void)pisa::perturb_in_place_recorded(state, config, rng);
    // Arena path syncs (or patches) its cached view; the arena-free path
    // rebuilds everything from the instance. Identical bits required.
    EXPECT_EQ(heft->plan_makespan(state, &arena), heft->plan_makespan(state, nullptr));
    EXPECT_EQ(cpop->plan_makespan(state, &arena), cpop->plan_makespan(state, nullptr));
  }
}

// --- annealer entry points --------------------------------------------------

TEST(Annealer, TypeErasedObjectiveMatchesSchedulerPairPath) {
  // anneal() runs the templated concrete-lambda path; anneal_objective runs
  // the std::function path. Same seed: identical trajectories.
  const auto target = SchedulerRegistry::instance().make("HEFT", 1);
  const auto baseline = SchedulerRegistry::instance().make("CPoP", 2);
  const auto config = pisa::PerturbationConfig::generic();
  const auto initial = pisa::random_chain_instance(3);
  pisa::AnnealingParams params;
  params.max_iterations = 80;
  const auto direct = pisa::anneal(*target, *baseline, initial, config, params, 123);
  const pisa::ArenaObjective objective = [&](const ProblemInstance& inst, TimelineArena& arena) {
    return pisa::makespan_ratio(*target, *baseline, inst, &arena);
  };
  const auto erased = pisa::anneal_objective(objective, initial, config, params, 123);
  EXPECT_EQ(direct.best_ratio, erased.best_ratio);
  EXPECT_EQ(direct.evaluations, erased.evaluations);
  EXPECT_EQ(direct.accepted, erased.accepted);
  EXPECT_TRUE(same_instance(direct.best_instance, erased.best_instance));
}

// --- unchecked dependency insertion ----------------------------------------

TEST(UncheckedAdd, MatchesCheckedAddOnPrevalidatedEdges) {
  const auto base = fuzzed_instance(10, 3, 77);
  Rng rng(13);
  TaskGraph checked = base.graph;
  TaskGraph unchecked = base.graph;
  for (int i = 0; i < 60; ++i) {
    const auto from = static_cast<TaskId>(rng.index(base.graph.task_count()));
    const auto to = static_cast<TaskId>(rng.index(base.graph.task_count()));
    const double cost = rng.uniform(0.0, 1.0);
    if (from == to || checked.has_dependency(from, to) ||
        checked.would_create_cycle(from, to)) {
      continue;
    }
    ASSERT_TRUE(checked.add_dependency(from, to, cost));
    unchecked.add_dependency_unchecked(from, to, cost);
    ASSERT_EQ(checked.dependency_count(), unchecked.dependency_count());
    for (TaskId t = 0; t < checked.task_count(); ++t) {
      const auto sa = checked.successors(t);
      const auto sb = unchecked.successors(t);
      ASSERT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin(), sb.end()));
      const auto pa = checked.predecessors(t);
      const auto pb = unchecked.predecessors(t);
      ASSERT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()));
    }
    ASSERT_EQ(checked.topological_order(), unchecked.topological_order());
  }
}

}  // namespace
}  // namespace saga
