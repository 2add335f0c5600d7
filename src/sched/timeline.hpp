#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "graph/instance_view.hpp"
#include "graph/problem_instance.hpp"
#include "sched/arena.hpp"
#include "sched/schedule.hpp"

/// \file timeline.hpp
/// Incremental schedule construction shared by all list schedulers: tracks
/// per-node busy intervals and per-task placement, computes data-ready and
/// earliest-start times, and supports both append-only placement (MCT,
/// MinMin, ...) and insertion-based placement (HEFT, CPoP) where a task may
/// slot into an idle gap between already-placed tasks.
///
/// The builder runs on the shared evaluation kernel: all instance reads go
/// through a flat InstanceView, and per-(task, node) data-ready times are
/// memoized — maintained incrementally as predecessors are placed — so the
/// inner node-selection loops of the list schedulers are O(1) per query
/// with no adjacency walk. Constructed with a TimelineArena, the builder
/// borrows the arena's cached view and recycled scratch buffers, making
/// repeated `schedule()` calls allocation-free once the arena is warm.
///
/// The row-wise candidate API (`data_ready_row`, `eft_row`, `best_eft`,
/// `node_available_row`) evaluates a candidate task against **all** nodes
/// in one contiguous structure-of-arrays sweep over the data-ready memo,
/// the availability row, and the view's packed speed table — the form the
/// compiler autovectorizes — and is bit-identical to the scalar
/// `earliest_start`/`earliest_finish` queries it replaces.

namespace saga {

class TimelineBuilder {
 public:
  /// One-shot constructor: builds a private view and scratch (allocates).
  explicit TimelineBuilder(const ProblemInstance& inst);

  /// Kernel constructor: borrows the arena's cached view and a pooled
  /// scratch block. `arena == nullptr` falls back to the one-shot path.
  /// The builder must not outlive the arena.
  TimelineBuilder(const ProblemInstance& inst, TimelineArena* arena);

  /// For callers that already hold a synced view (must stay valid and
  /// unchanged for the builder's lifetime).
  TimelineBuilder(const InstanceView& view, TimelineArena* arena);

  TimelineBuilder(const TimelineBuilder& other);
  TimelineBuilder& operator=(const TimelineBuilder& other);
  ~TimelineBuilder();

  [[nodiscard]] const InstanceView& view() const noexcept { return *view_; }
  [[nodiscard]] const ProblemInstance& instance() const noexcept { return view_->instance(); }

  [[nodiscard]] bool placed(TaskId t) const { return scratch_->placed[t] != 0; }
  [[nodiscard]] std::size_t placed_count() const noexcept { return placed_count_; }
  [[nodiscard]] const Assignment& assignment_of(TaskId t) const;

  /// Time at which all of t's inputs are available on node v, given the
  /// placements of t's predecessors (which must all be placed). O(1): reads
  /// the memo maintained by `place`.
  [[nodiscard]] double data_ready_time(TaskId t, NodeId v) const;

  /// Earliest start of t on v: with `insertion`, the earliest idle gap of
  /// sufficient length at or after the data-ready time (binary search to
  /// the first busy interval ending after the ready time, then a forward
  /// gap scan); otherwise max(data-ready time, end of the node's last busy
  /// interval).
  [[nodiscard]] double earliest_start(TaskId t, NodeId v, bool insertion) const;

  /// earliest_start + execution time.
  [[nodiscard]] double earliest_finish(TaskId t, NodeId v, bool insertion) const;

  /// One row of per-node candidate values for a ready task, produced by a
  /// single SoA sweep (see eft_row). Spans point into the builder's scratch
  /// and are valid until the next eft_row or place call.
  struct CandidateRow {
    std::span<const double> start;   ///< earliest_start(t, v, insertion) per node
    std::span<const double> finish;  ///< start[v] + exec_time(t, v) per node
  };

  /// Computes earliest start and finish of t across **all** nodes in one
  /// contiguous sweep over the data-ready row, the availability row, and
  /// the packed speed table. Bit-identical to querying
  /// `earliest_start`/`earliest_finish` per node: the append-mode value is
  /// max(ready, avail) + cost/speed computed element-wise; in insertion
  /// mode, lanes where a gap could beat appending (some busy interval ends
  /// after the ready time) are patched with the scalar gap scan.
  [[nodiscard]] CandidateRow eft_row(TaskId t, bool insertion);

  /// The memoized data-ready row of t (all predecessors must be placed):
  /// data_ready_time(t, v) for every v as one contiguous span.
  [[nodiscard]] std::span<const double> data_ready_row(TaskId t) const {
    const std::size_t nodes = view_->node_count();
    return {scratch_->data_ready.data() + static_cast<std::size_t>(t) * nodes, nodes};
  }

  /// node_available(v) for every v as one contiguous span, maintained
  /// incrementally by place().
  [[nodiscard]] std::span<const double> node_available_row() const noexcept {
    return scratch_->node_avail;
  }

  /// Argmin over the eft_row finish row; the first (lowest-id) node wins
  /// ties, the same rule as the schedulers' scalar argmin loops.
  struct NodeChoice {
    NodeId node = 0;
    double start = 0.0;
    double finish = 0.0;
  };
  [[nodiscard]] NodeChoice best_eft(TaskId t, bool insertion);

  /// Reusable scheduler-side temporaries pooled with this builder's scratch
  /// (see TimelineScratch::Workspace).
  [[nodiscard]] TimelineScratch::Workspace& workspace() noexcept { return scratch_->ws; }

  /// Storage for this builder's ReadyRows table (see sched/ready_rows.hpp).
  [[nodiscard]] TimelineScratch::ReadyRowStore& ready_row_store() noexcept {
    return scratch_->rows;
  }

  /// Execution time of t on v (cost / speed).
  [[nodiscard]] double exec_time(TaskId t, NodeId v) const { return view_->exec_time(t, v); }

  /// End of the last busy interval on v (0 if idle). O(1): reads the
  /// availability row place() maintains.
  [[nodiscard]] double node_available(NodeId v) const { return scratch_->node_avail[v]; }

  /// Number of predecessors of t not yet placed.
  [[nodiscard]] std::size_t unplaced_predecessors(TaskId t) const {
    return scratch_->pending_preds[t];
  }
  [[nodiscard]] bool ready(TaskId t) const {
    return scratch_->placed[t] == 0 && scratch_->pending_preds[t] == 0;
  }

  /// Tasks whose predecessors are all placed, in id order, as one id-sorted
  /// list the builder owns. The first query after construction builds it
  /// with one O(T) scan; from then on place() keeps it current (erase the
  /// placed task, insert each successor it made ready), so a scheduler that
  /// queries every step pays O(|R|) per placement, not O(T). Schedulers
  /// that place in a precomputed order and never query pay nothing. The
  /// span is valid until the next place call.
  [[nodiscard]] std::span<const TaskId> ready_tasks() const noexcept {
    TimelineScratch& s = *scratch_;
    if (!s.ready_live) {
      s.ready_list.clear();
      const std::size_t tasks = view_->task_count();
      for (TaskId t = 0; t < tasks; ++t) {
        if (s.placed[t] == 0 && s.pending_preds[t] == 0) s.ready_list.push_back(t);
      }
      s.ready_live = true;
    }
    return s.ready_list;
  }

  /// Places t on v starting at `start` (which must be >= both the node's
  /// free slot and the data-ready time; checked in debug builds). Updates
  /// the successors' data-ready memo incrementally.
  void place(TaskId t, NodeId v, double start);

  /// Convenience: place at the earliest start.
  void place_earliest(TaskId t, NodeId v, bool insertion) {
    place(t, v, earliest_start(t, v, insertion));
  }

  /// True once every task has been placed.
  [[nodiscard]] bool complete() const noexcept {
    return placed_count_ == view_->task_count();
  }

  /// Current makespan of the partial schedule.
  [[nodiscard]] double current_makespan() const noexcept { return makespan_; }

  /// Extracts the finished schedule. Requires complete().
  [[nodiscard]] Schedule to_schedule() const;

 private:
  void init();

  const InstanceView* view_ = nullptr;
  std::shared_ptr<const InstanceView> owned_view_;  // one-shot path; shared by copies
  TimelineArena* arena_ = nullptr;
  std::unique_ptr<TimelineScratch> scratch_;
  std::size_t placed_count_ = 0;
  double makespan_ = 0.0;
};

}  // namespace saga
