#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/instance_view.hpp"
#include "sched/schedule.hpp"

/// \file arena.hpp
/// Reusable evaluation state for the scheduling kernel. A TimelineArena
/// owns (1) a cached InstanceView that is stamp-synced — weight-only
/// instance mutations, the common case in PISA's annealing loop, refresh it
/// in place without allocating — and (2) a pool of TimelineScratch blocks
/// whose vectors keep their capacity across `schedule()` calls, making
/// repeated timeline construction allocation-free once warm.
///
/// Intended use: one arena per worker thread, passed down through
/// Scheduler::schedule(inst, &arena). Arenas are not thread-safe, and every
/// TimelineBuilder drawing on an arena must be destroyed before the arena.
/// All builders concurrently alive on one arena must target the same
/// instance (nested schedulers — Duplex, Ensemble, GA — satisfy this
/// naturally; they recurse on the instance they were given).

namespace saga {

/// Scratch state behind one in-flight TimelineBuilder. Plain aggregate so
/// builder copies (exact search branches) are a member-wise vector copy
/// that reuses the destination's capacity.
struct TimelineScratch {
  struct Interval {
    double start;
    double end;
    TaskId task;
  };

  /// Reusable scheduler-side temporaries (rank/level/priority tables,
  /// option lists). Recycled with the scratch block, so a scheduler that
  /// draws its working vectors from here instead of function-locals runs
  /// allocation-free through a warm arena. Contents are unspecified between
  /// uses; callers size them on entry. Slots are named by shape only —
  /// each scheduler assigns its own meaning.
  struct Workspace {
    std::vector<double> d0, d1, d2;
    std::vector<TaskId> tasks;
    std::vector<NodeId> nodes;
    std::vector<std::uint32_t> idx;
    std::vector<char> flags;
  };

  /// Storage behind ReadyRows (sched/ready_rows.hpp): per-task rows, valid
  /// while the task is ready. Like Workspace, left as-is by reset: the
  /// table sizes it on construction and writes every row before reading
  /// it, so schedulers that never build one pay nothing.
  struct ReadyRowStore {
    std::vector<double> start;       // T*N append-mode start rows
    std::vector<double> finish;      // T*N append-mode finish rows
    std::vector<double> best_key;    // per task: key of the best lane
    std::vector<double> max_finish;  // per task: max over the finish row
    std::vector<NodeId> best_node;   // per task: lowest lane with the best key
  };

  std::vector<std::vector<Interval>> busy;   // per node, sorted by (start, end)
  std::vector<Assignment> assignment;        // per task; valid iff placed
  std::vector<char> placed;                  // per task
  std::vector<std::uint32_t> pending_preds;  // per task: unplaced predecessors
  std::vector<double> data_ready;            // T*N memo, see TimelineBuilder
  std::vector<double> node_avail;            // per node: end of last busy interval
  std::vector<double> row_start;             // per node: eft_row output, see eft_row
  std::vector<double> row_finish;            // per node: eft_row output
  std::vector<TaskId> ready_list;            // ready tasks, id-sorted, iff ready_live
  bool ready_live = false;                   // ready_list built and kept by place()
  Workspace ws;
  ReadyRowStore rows;

  /// Sizes every buffer for (tasks, nodes) and clears logical state,
  /// reusing existing capacity. Workspace and ReadyRowStore vectors are
  /// left as-is (their users size them).
  void reset(std::size_t tasks, std::size_t nodes);
};

class TimelineArena {
 public:
  TimelineArena() = default;
  TimelineArena(const TimelineArena&) = delete;
  TimelineArena& operator=(const TimelineArena&) = delete;

  /// The arena's cached view, synced to `inst` (see InstanceView::sync).
  const InstanceView& view_for(const ProblemInstance& inst) {
    if (!view_.in_sync_with(inst)) view_.sync(inst);
    return view_;
  }

  /// Direct access to the cached view without syncing — for the annealer's
  /// O(1) weight patches (InstanceView::patch_*) driven by a recorded
  /// perturbation. Check in_sync_with before relying on its contents.
  [[nodiscard]] InstanceView& view() noexcept { return view_; }

  /// Takes a scratch block from the pool (or allocates the pool's first).
  /// Contents are stale; callers reset before use. Inline: this runs twice
  /// per PISA objective evaluation.
  [[nodiscard]] std::unique_ptr<TimelineScratch> acquire() {
    if (pool_.empty()) return std::make_unique<TimelineScratch>();
    auto scratch = std::move(pool_.back());
    pool_.pop_back();
    return scratch;
  }

  /// Returns a scratch block to the pool for reuse.
  void release(std::unique_ptr<TimelineScratch> scratch) {
    if (scratch) pool_.push_back(std::move(scratch));
  }

  /// Number of pooled (idle) scratch blocks, for tests and stats.
  [[nodiscard]] std::size_t pooled() const noexcept { return pool_.size(); }

 private:
  InstanceView view_;
  std::vector<std::unique_ptr<TimelineScratch>> pool_;
};

}  // namespace saga
