#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <utility>

#include "sched/timeline.hpp"

/// \file ready_rows.hpp
/// Incremental ready-set candidate table for the ready-list schedulers
/// (MinMin, MaxMin, ETF, GDL, BIL, WBA). For every ready task t it keeps
/// the append-mode row
///
///   start[v] = max(data_ready(t, v), node_available(v))
///   finish[v] = start[v] + exec(t, v)
///
/// plus the row's best lane under a scheduler-supplied key
/// `key(t, v, start, finish)` (lower is better, lowest lane wins ties) and
/// the row's maximum finish.
///
/// Update rule. Placing a task on node v changes only node_available(v),
/// so `place(t, v)` fills full rows for the tasks the placement made ready
/// (their predecessors are all placed, so their data-ready rows are final)
/// and then rewrites lane v of every ready task; the fresh rows are already
/// current there, so only the older ones change. The ready set itself is
/// the builder's list (TimelineBuilder::ready_tasks), which place() keeps
/// current.
///
/// Why it is exact, ties included. node_available(v) never decreases, and
/// every key is non-decreasing in start and finish, so a lane's key can
/// only get worse. A task whose best lane is not v therefore keeps it: a
/// lower-index lane equal to the best would already have been the best.
/// Only when the best lane itself changed is the row rescanned. The result
/// is bit-identical to re-sweeping every ready task with
/// TimelineBuilder::eft_row each step, at O(|R|) per placement instead of
/// O(|R| |V|) plus a row rescan where the best lane moved.
///
/// Storage lives in the builder's TimelineScratch, so a warm arena keeps
/// the table allocation-free. One table per builder.

namespace saga {

template <class Key>
class ReadyRows {
 public:
  /// Fills rows for the builder's currently ready tasks.
  ReadyRows(TimelineBuilder& builder, Key key)
      : builder_(builder),
        view_(builder.view()),
        store_(builder.ready_row_store()),
        key_(std::move(key)),
        nodes_(view_.node_count()) {
    const std::size_t tasks = view_.task_count();
    store_.start.resize(tasks * nodes_);
    store_.finish.resize(tasks * nodes_);
    store_.best_key.resize(tasks);
    store_.max_finish.resize(tasks);
    store_.best_node.resize(tasks);
    for (const TaskId t : builder.ready_tasks()) fill(t);
  }

  /// Ready tasks in id order. Valid until the next place call.
  [[nodiscard]] std::span<const TaskId> tasks() const noexcept { return builder_.ready_tasks(); }

  /// Lowest lane with the least key, and that key.
  [[nodiscard]] NodeId best_node(TaskId t) const { return store_.best_node[t]; }
  [[nodiscard]] double best_key(TaskId t) const { return store_.best_key[t]; }

  [[nodiscard]] double start(TaskId t, NodeId v) const { return store_.start[t * nodes_ + v]; }
  [[nodiscard]] double finish(TaskId t, NodeId v) const { return store_.finish[t * nodes_ + v]; }
  [[nodiscard]] double max_finish(TaskId t) const { return store_.max_finish[t]; }

  /// The ready task with the least (greatest) best key; the lowest task id
  /// wins ties. Requires a non-empty ready set.
  [[nodiscard]] TaskId least_key_task() const {
    const auto ready = tasks();
    return *std::min_element(ready.begin(), ready.end(), by_key());
  }
  [[nodiscard]] TaskId greatest_key_task() const {
    const auto ready = tasks();
    return *std::max_element(ready.begin(), ready.end(), by_key());
  }

  /// Places ready task t on v at its append-mode start and updates the
  /// table (see the file comment).
  void place(TaskId t, NodeId v) {
    builder_.place(t, v, start(t, v));
    for (const auto& edge : view_.successors(t)) {
      if (builder_.ready(edge.task)) fill(edge.task);
    }

    const double avail = builder_.node_available(v);
    for (const TaskId u : tasks()) {
      const std::size_t i = u * nodes_ + v;
      const double s = std::max(builder_.data_ready_row(u)[v], avail);
      if (s == store_.start[i]) continue;
      const double f = s + view_.exec_time(u, v);
      store_.start[i] = s;
      store_.finish[i] = f;
      store_.max_finish[u] = std::max(store_.max_finish[u], f);
      if (store_.best_node[u] == v) rescan(u);
    }
  }

 private:
  [[nodiscard]] auto by_key() const {
    return [this](TaskId a, TaskId b) { return store_.best_key[a] < store_.best_key[b]; };
  }

  /// One fused sweep: writes the start and finish rows and folds the best
  /// key and the maximum finish in the same pass.
  void fill(TaskId t) {
    const double* exec = view_.exec_row_or_null(t);
    if (exec != nullptr) {
      sweep(t, [exec](NodeId v) { return exec[v]; });
    } else {
      const double cost = view_.task_cost(t);
      const double* speed = view_.node_speeds().data();
      sweep(t, [cost, speed](NodeId v) { return cost / speed[v]; });
    }
  }

  template <class Exec>
  void sweep(TaskId t, Exec exec) {
    const double* ready = builder_.data_ready_row(t).data();
    const double* avail = builder_.node_available_row().data();
    double* start = store_.start.data() + t * nodes_;
    double* finish = store_.finish.data() + t * nodes_;
    NodeId best = 0;
    double best_key = std::numeric_limits<double>::infinity();
    double max_finish = -std::numeric_limits<double>::infinity();
    for (NodeId v = 0; v < nodes_; ++v) {
      const double s = std::max(ready[v], avail[v]);
      const double f = s + exec(v);
      start[v] = s;
      finish[v] = f;
      const double k = key_(t, v, s, f);
      if (k < best_key) {
        best_key = k;
        best = v;
      }
      max_finish = std::max(max_finish, f);
    }
    store_.best_node[t] = best;
    store_.best_key[t] = best_key;
    store_.max_finish[t] = max_finish;
  }

  void rescan(TaskId t) {
    const double* start = store_.start.data() + t * nodes_;
    const double* finish = store_.finish.data() + t * nodes_;
    NodeId best = 0;
    double best_key = std::numeric_limits<double>::infinity();
    for (NodeId v = 0; v < nodes_; ++v) {
      const double k = key_(t, v, start[v], finish[v]);
      if (k < best_key) {
        best_key = k;
        best = v;
      }
    }
    store_.best_node[t] = best;
    store_.best_key[t] = best_key;
  }

  TimelineBuilder& builder_;
  const InstanceView& view_;
  TimelineScratch::ReadyRowStore& store_;
  Key key_;
  std::size_t nodes_;
};

}  // namespace saga
