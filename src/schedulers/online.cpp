#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sched/registry.hpp"
#include "sched/scheduler.hpp"
#include "sched/timeline.hpp"
#include "schedulers/register.hpp"

/// \file online.cpp
/// Online scheduling — the paper's conclusion lists "online scheduling
/// (e.g., scheduling tasks as they arrive)" as future work.
///
/// Model: the task graph is *not* known upfront. A task is revealed only
/// at the moment it becomes ready (all predecessors placed), in order of
/// input arrival (the latest predecessor finish; lowest id on ties). The
/// policy sees the revealed task's cost, where its inputs live, the network
/// and the current node timelines — but nothing about unrevealed successors
/// (so rank-based priorities are unavailable by construction). It must
/// immediately and irrevocably pick a node; the task then starts as early
/// as possible there, appended to the node's timeline. The result is a
/// valid offline schedule, so it compares directly against HEFT & friends
/// to measure the price of not knowing the future. Tagged "online" (not
/// "extension": it is a protocol restriction, not another offline
/// heuristic) so it can join simulate-mode rosters via `@online`.

namespace saga {
namespace {

constexpr std::string_view kPolicyHelp =
    "eft (default), rr, fastest, locality, or random";

enum class Policy { kEft, kRoundRobin, kFastest, kLocality, kRandom };

Policy parse_policy(const std::string& name) {
  if (name == "eft") return Policy::kEft;
  if (name == "rr") return Policy::kRoundRobin;
  if (name == "fastest") return Policy::kFastest;
  if (name == "locality") return Policy::kLocality;
  if (name == "random") return Policy::kRandom;
  throw std::invalid_argument("scheduler 'Online': unknown policy '" + name + "' (expected " +
                              std::string(kPolicyHelp) + ")");
}

class OnlineScheduler final : public ListScheduler {
 public:
  OnlineScheduler(Policy policy, double tolerance, std::uint64_t seed)
      : policy_(policy), tolerance_(tolerance), seed_(seed) {}

  [[nodiscard]] std::string_view name() const override { return "Online"; }

 private:
  void build(TimelineBuilder& builder) const override {
    const InstanceView& view = builder.view();
    const std::size_t nodes = view.node_count();
    const NodeId fastest = builder.instance().network.fastest_node();
    // Per-call cursor and stream: build() stays stateless, so every
    // instance starts round-robin at node 0 and random from the seed.
    std::size_t cursor = 0;
    Rng rng(seed_);
    std::vector<std::uint32_t> inputs_on(policy_ == Policy::kLocality ? nodes : 0);

    // Reveal queue keyed on (input arrival, id). A ready task's arrival
    // never changes, so pushing it once when its last predecessor is placed
    // reveals tasks in the same order as rescanning the ready set.
    using Reveal = std::pair<double, TaskId>;
    std::priority_queue<Reveal, std::vector<Reveal>, std::greater<>> revealed;
    for (TaskId t = 0; t < view.task_count(); ++t) {
      if (view.predecessors(t).empty()) revealed.emplace(0.0, t);
    }

    while (!revealed.empty()) {
      const TaskId t = revealed.top().second;
      revealed.pop();
      NodeId chosen = 0;
      switch (policy_) {
        case Policy::kEft:
          chosen = builder.best_eft(t, /*insertion=*/false).node;
          break;
        case Policy::kRoundRobin:
          chosen = static_cast<NodeId>(cursor++ % nodes);
          break;
        case Policy::kFastest:
          chosen = fastest;
          break;
        case Policy::kRandom:
          chosen = static_cast<NodeId>(rng.index(nodes));
          break;
        case Policy::kLocality: {
          // Home = the node holding most of t's inputs (the first to reach
          // the maximum count, in predecessor order); sources go to the
          // fastest node. Stay home unless the best EFT beats it by more
          // than the relative tolerance.
          NodeId home = fastest;
          std::uint32_t most = 0;
          std::fill(inputs_on.begin(), inputs_on.end(), 0U);
          for (const auto& edge : view.predecessors(t)) {
            const NodeId at = builder.assignment_of(edge.task).node;
            if (++inputs_on[at] > most) {
              most = inputs_on[at];
              home = at;
            }
          }
          const auto best = builder.best_eft(t, /*insertion=*/false);
          chosen = builder.earliest_finish(t, home, /*insertion=*/false) <=
                           best.finish * (1.0 + tolerance_)
                       ? home
                       : best.node;
          break;
        }
      }
      builder.place_earliest(t, chosen, /*insertion=*/false);

      for (const auto& edge : view.successors(t)) {
        if (!builder.ready(edge.task)) continue;
        double arrival = 0.0;
        for (const auto& input : view.predecessors(edge.task)) {
          arrival = std::max(arrival, builder.assignment_of(input.task).finish);
        }
        revealed.emplace(arrival, edge.task);
      }
    }
  }

  Policy policy_;
  double tolerance_;
  std::uint64_t seed_;
};

}  // namespace

void register_online_scheduler(SchedulerRegistry& registry) {
  SchedulerDesc desc;
  desc.name = "Online";
  desc.summary =
      "Reveal-on-ready online scheduling: tasks are placed the moment they become "
      "ready, with no knowledge of unrevealed successors";
  desc.tags = {"online"};
  desc.randomized = true;  // policy=random consumes the seed
  desc.params = {{"policy", std::string("online placement policy: ") + std::string(kPolicyHelp)},
                 {"tolerance", "locality policy's relative EFT tolerance >= 0 (default 0.25)"}};
  desc.factory = [](const SchedulerParams& params, std::uint64_t seed) -> SchedulerPtr {
    const Policy policy = parse_policy(params.get_string("policy", "eft"));
    const double tolerance = params.get_double("tolerance", 0.25);
    if (!(tolerance >= 0.0)) params.reject("tolerance", "a number >= 0");
    return std::make_unique<OnlineScheduler>(policy, tolerance, seed);
  };
  registry.add(std::move(desc));
}

}  // namespace saga
