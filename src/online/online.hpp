#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/problem_instance.hpp"
#include "sched/schedule.hpp"

/// \file online.hpp
/// Online scheduling — the paper's conclusion lists "online scheduling
/// (e.g., scheduling tasks as they arrive)" as future work; this module
/// implements it as a constrained-information simulation.
///
/// Model: the task graph is *not* known upfront. A task is revealed to the
/// policy only at the moment it becomes ready (all predecessors finished);
/// the policy sees the revealed task's cost, where its inputs live, the
/// network, and the current node timelines — but nothing about unrevealed
/// successors (so rank-based priorities are unavailable by construction).
/// The policy must immediately and irrevocably pick a node; the task then
/// starts as early as possible there. The resulting schedule is a valid
/// offline schedule, so it can be compared directly against HEFT & friends
/// to measure the price of not knowing the future.

namespace saga::online {

/// What a policy may see when a task is revealed. `arrival` is the
/// simulation time of the reveal (the earliest moment all inputs exist
/// somewhere); `input_home[i]` pairs each predecessor with the node its
/// output lives on.
struct RevealedTask {
  TaskId task = 0;
  double cost = 0.0;
  double arrival = 0.0;
  std::vector<std::pair<TaskId, NodeId>> input_home;
};

/// Read-only view of the execution state offered to policies.
class ExecutionView {
 public:
  ExecutionView(const ProblemInstance& inst, const std::vector<double>& node_free,
                const std::vector<double>& task_finish,
                const std::vector<std::pair<TaskId, NodeId>>& placements)
      : inst_(&inst), node_free_(&node_free), task_finish_(&task_finish),
        placements_(&placements) {}

  [[nodiscard]] const Network& network() const noexcept { return inst_->network; }

  /// Earliest time node v is free for new work.
  [[nodiscard]] double node_free(NodeId v) const { return (*node_free_)[v]; }

  /// Data-ready time of a revealed task on node v (transfer from each
  /// input's home node).
  [[nodiscard]] double data_ready(const RevealedTask& task, NodeId v) const;

  /// Earliest start / finish of the revealed task on v.
  [[nodiscard]] double earliest_start(const RevealedTask& task, NodeId v) const;
  [[nodiscard]] double earliest_finish(const RevealedTask& task, NodeId v) const;

 private:
  const ProblemInstance* inst_;
  const std::vector<double>* node_free_;
  const std::vector<double>* task_finish_;
  const std::vector<std::pair<TaskId, NodeId>>* placements_;
};

/// An online scheduling policy: must pick a node for every revealed task.
class OnlinePolicy {
 public:
  virtual ~OnlinePolicy() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual NodeId place(const RevealedTask& task, const ExecutionView& view) = 0;
  /// Called once per instance before simulation (reset internal state).
  virtual void reset(const ProblemInstance& inst) { (void)inst; }
};

using OnlinePolicyPtr = std::unique_ptr<OnlinePolicy>;

/// Greedy earliest-finish-time: the online analogue of MCT.
[[nodiscard]] OnlinePolicyPtr make_online_eft();

/// Round-robin across nodes, ignoring all costs (online OLB cousin).
[[nodiscard]] OnlinePolicyPtr make_online_round_robin();

/// Always the fastest node (online FastestNode / MET).
[[nodiscard]] OnlinePolicyPtr make_online_fastest();

/// Sticky data-locality: the input-majority home node unless the EFT of
/// the earliest-free node beats it by more than `tolerance` (relative).
[[nodiscard]] OnlinePolicyPtr make_online_locality(double tolerance = 0.25);

/// Uniform random node (baseline), deterministic in seed.
[[nodiscard]] OnlinePolicyPtr make_online_random(std::uint64_t seed);

/// Runs the reveal-on-ready simulation and returns the realised schedule
/// (valid for the instance; compare makespans against offline schedulers).
[[nodiscard]] Schedule simulate_online(const ProblemInstance& inst, OnlinePolicy& policy);

}  // namespace saga::online
