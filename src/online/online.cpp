#include "online/online.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "common/rng.hpp"
#include "sched/timeline.hpp"

namespace saga::online {

double ExecutionView::data_ready(const RevealedTask& task, NodeId v) const {
  double ready = 0.0;
  for (const auto& [pred, home] : task.input_home) {
    const double produced = (*task_finish_)[pred];
    const double arrival =
        produced + inst_->network.comm_time(inst_->graph.dependency_cost(pred, task.task),
                                            home, v);
    ready = std::max(ready, arrival);
  }
  return ready;
}

double ExecutionView::earliest_start(const RevealedTask& task, NodeId v) const {
  return std::max(data_ready(task, v), node_free(v));
}

double ExecutionView::earliest_finish(const RevealedTask& task, NodeId v) const {
  return earliest_start(task, v) + inst_->network.exec_time(task.cost, v);
}

namespace {

class EftPolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "online-EFT"; }
  [[nodiscard]] NodeId place(const RevealedTask& task, const ExecutionView& view) override {
    NodeId best = 0;
    double best_finish = std::numeric_limits<double>::infinity();
    for (NodeId v = 0; v < view.network().node_count(); ++v) {
      const double finish = view.earliest_finish(task, v);
      if (finish < best_finish) {
        best_finish = finish;
        best = v;
      }
    }
    return best;
  }
};

class RoundRobinPolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "online-RR"; }
  void reset(const ProblemInstance&) override { next_ = 0; }
  [[nodiscard]] NodeId place(const RevealedTask&, const ExecutionView& view) override {
    const NodeId v = static_cast<NodeId>(next_ % view.network().node_count());
    ++next_;
    return v;
  }

 private:
  std::size_t next_ = 0;
};

class FastestPolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "online-Fastest"; }
  [[nodiscard]] NodeId place(const RevealedTask&, const ExecutionView& view) override {
    return view.network().fastest_node();
  }
};

class LocalityPolicy final : public OnlinePolicy {
 public:
  explicit LocalityPolicy(double tolerance) : tolerance_(tolerance) {}
  [[nodiscard]] std::string_view name() const override { return "online-Locality"; }
  [[nodiscard]] NodeId place(const RevealedTask& task, const ExecutionView& view) override {
    // Home = the input node holding the largest share of input bytes;
    // fall back to the fastest node for source tasks.
    NodeId home = view.network().fastest_node();
    if (!task.input_home.empty()) {
      std::unordered_map<NodeId, double> bytes;
      double best_bytes = -1.0;
      for (const auto& [pred, node] : task.input_home) {
        (void)pred;
        bytes[node] += 1.0;  // weight by input count; sizes live in the graph
        if (bytes[node] > best_bytes) {
          best_bytes = bytes[node];
          home = node;
        }
      }
    }
    NodeId eft_best = 0;
    double eft_finish = std::numeric_limits<double>::infinity();
    for (NodeId v = 0; v < view.network().node_count(); ++v) {
      const double finish = view.earliest_finish(task, v);
      if (finish < eft_finish) {
        eft_finish = finish;
        eft_best = v;
      }
    }
    const double home_finish = view.earliest_finish(task, home);
    return home_finish <= eft_finish * (1.0 + tolerance_) ? home : eft_best;
  }

 private:
  double tolerance_;
};

class RandomPolicy final : public OnlinePolicy {
 public:
  explicit RandomPolicy(std::uint64_t seed) : seed_(seed), rng_(seed) {}
  [[nodiscard]] std::string_view name() const override { return "online-Random"; }
  void reset(const ProblemInstance&) override { rng_.reseed(seed_); }
  [[nodiscard]] NodeId place(const RevealedTask&, const ExecutionView& view) override {
    return static_cast<NodeId>(rng_.index(view.network().node_count()));
  }

 private:
  std::uint64_t seed_;
  Rng rng_;
};

}  // namespace

OnlinePolicyPtr make_online_eft() { return std::make_unique<EftPolicy>(); }
OnlinePolicyPtr make_online_round_robin() { return std::make_unique<RoundRobinPolicy>(); }
OnlinePolicyPtr make_online_fastest() { return std::make_unique<FastestPolicy>(); }
OnlinePolicyPtr make_online_locality(double tolerance) {
  return std::make_unique<LocalityPolicy>(tolerance);
}
OnlinePolicyPtr make_online_random(std::uint64_t seed) {
  return std::make_unique<RandomPolicy>(seed);
}

Schedule simulate_online(const ProblemInstance& inst, OnlinePolicy& policy) {
  const auto& g = inst.graph;
  policy.reset(inst);

  TimelineBuilder builder(inst);
  std::vector<double> node_free(inst.network.node_count(), 0.0);
  std::vector<double> task_finish(g.task_count(), 0.0);
  std::vector<std::pair<TaskId, NodeId>> placements;

  // Reveal-on-ready loop: among ready (unplaced) tasks, the one whose
  // inputs all exist earliest is revealed next. Tasks are dispatched in
  // reveal order — the policy never sees two pending tasks at once, the
  // strictest online regime.
  while (!builder.complete()) {
    TaskId next = 0;
    double next_arrival = std::numeric_limits<double>::infinity();
    bool found = false;
    for (TaskId t = 0; t < g.task_count(); ++t) {
      if (!builder.ready(t)) continue;
      double arrival = 0.0;  // inputs exist once every producer finished
      for (TaskId p : g.predecessors(t)) {
        arrival = std::max(arrival, builder.assignment_of(p).finish);
      }
      if (!found || arrival < next_arrival || (arrival == next_arrival && t < next)) {
        next = t;
        next_arrival = arrival;
        found = true;
      }
    }

    RevealedTask revealed;
    revealed.task = next;
    revealed.cost = g.cost(next);
    revealed.arrival = next_arrival;
    for (TaskId p : g.predecessors(next)) {
      revealed.input_home.emplace_back(p, builder.assignment_of(p).node);
    }

    const ExecutionView view(inst, node_free, task_finish, placements);
    const NodeId chosen = policy.place(revealed, view);
    if (chosen >= inst.network.node_count()) {
      throw std::logic_error("online policy returned an invalid node");
    }
    builder.place_earliest(next, chosen, /*insertion=*/false);
    const auto& a = builder.assignment_of(next);
    node_free[chosen] = a.finish;
    task_finish[next] = a.finish;
    placements.emplace_back(next, chosen);
  }
  return builder.to_schedule();
}

}  // namespace saga::online
