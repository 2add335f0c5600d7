#include "sched/timeline.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace saga {

TimelineBuilder::TimelineBuilder(const ProblemInstance& inst) : TimelineBuilder(inst, nullptr) {}

TimelineBuilder::TimelineBuilder(const ProblemInstance& inst, TimelineArena* arena) {
  if (arena != nullptr) {
    view_ = &arena->view_for(inst);
    arena_ = arena;
    scratch_ = arena->acquire();
  } else {
    auto owned = std::make_shared<InstanceView>(inst);
    view_ = owned.get();
    owned_view_ = std::move(owned);
    scratch_ = std::make_unique<TimelineScratch>();
  }
  init();
}

TimelineBuilder::TimelineBuilder(const InstanceView& view, TimelineArena* arena)
    : view_(&view),
      arena_(arena),
      scratch_(arena != nullptr ? arena->acquire() : std::make_unique<TimelineScratch>()) {
  init();
}

TimelineBuilder::TimelineBuilder(const TimelineBuilder& other)
    : view_(other.view_),
      owned_view_(other.owned_view_),
      arena_(other.arena_),
      scratch_(other.arena_ != nullptr ? other.arena_->acquire()
                                       : std::make_unique<TimelineScratch>()),
      placed_count_(other.placed_count_),
      makespan_(other.makespan_) {
  *scratch_ = *other.scratch_;
}

TimelineBuilder& TimelineBuilder::operator=(const TimelineBuilder& other) {
  if (this == &other) return *this;
  view_ = other.view_;
  owned_view_ = other.owned_view_;
  *scratch_ = *other.scratch_;
  placed_count_ = other.placed_count_;
  makespan_ = other.makespan_;
  return *this;
}

TimelineBuilder::~TimelineBuilder() {
  if (arena_ != nullptr) arena_->release(std::move(scratch_));
}

void TimelineBuilder::init() {
  const std::size_t tasks = view_->task_count();
  scratch_->reset(tasks, view_->node_count());
  for (TaskId t = 0; t < tasks; ++t) {
    scratch_->pending_preds[t] = static_cast<std::uint32_t>(view_->predecessors(t).size());
  }
  placed_count_ = 0;
  makespan_ = 0.0;
}

const Assignment& TimelineBuilder::assignment_of(TaskId t) const {
  if (scratch_->placed[t] == 0) throw std::logic_error("task not placed yet");
  return scratch_->assignment[t];
}

double TimelineBuilder::data_ready_time(TaskId t, NodeId v) const {
  assert(scratch_->pending_preds[t] == 0 && "all predecessors must be placed first");
  return scratch_->data_ready[t * view_->node_count() + v];
}

double TimelineBuilder::earliest_start(TaskId t, NodeId v, bool insertion) const {
  const double ready = data_ready_time(t, v);
  if (!insertion) return std::max(ready, node_available(v));
  const double duration = exec_time(t, v);
  const auto& lane = scratch_->busy[v];
  // Intervals are disjoint and sorted, so end times are non-decreasing:
  // binary-search the first interval ending after the ready time. Earlier
  // intervals can neither advance the cursor nor host a break, so skipping
  // them reproduces the full scan exactly.
  auto it = std::lower_bound(
      lane.begin(), lane.end(), ready,
      [](const TimelineScratch::Interval& iv, double limit) { return iv.end <= limit; });
  double cursor = ready;
  for (; it != lane.end(); ++it) {
    if (it->start >= cursor + duration) break;  // gap before *it fits
    cursor = std::max(cursor, it->end);
  }
  return cursor;
}

double TimelineBuilder::earliest_finish(TaskId t, NodeId v, bool insertion) const {
  return earliest_start(t, v, insertion) + exec_time(t, v);
}

TimelineBuilder::CandidateRow TimelineBuilder::eft_row(TaskId t, bool insertion) {
  assert(scratch_->pending_preds[t] == 0 && "all predecessors must be placed first");
  const std::size_t n = view_->node_count();
  const double* ready = scratch_->data_ready.data() + static_cast<std::size_t>(t) * n;
  const double* avail = scratch_->node_avail.data();
  const double* speed = view_->node_speeds().data();
  const double* exec = view_->exec_row_or_null(t);
  const double cost = view_->task_cost(t);
  double* start = scratch_->row_start.data();
  double* finish = scratch_->row_finish.data();
  // Append-mode candidates for the whole row in one SoA sweep — identical
  // arithmetic to max(ready, node_available(v)) + exec_time(t, v) per node.
  // The cached exec row (small instances) holds exactly cost / speed[v], so
  // both branches produce the same bits; the cached one skips the division.
  if (exec != nullptr) {
    for (std::size_t v = 0; v < n; ++v) {
      const double s = std::max(ready[v], avail[v]);
      start[v] = s;
      finish[v] = s + exec[v];
    }
  } else {
    for (std::size_t v = 0; v < n; ++v) {
      const double s = std::max(ready[v], avail[v]);
      start[v] = s;
      finish[v] = s + cost / speed[v];
    }
  }
  if (insertion) {
    // A gap can only beat appending on lanes where some busy interval ends
    // after the ready time (otherwise the scalar scan degenerates to
    // start = ready, which the sweep already produced). Patch those lanes
    // with the exact gap scan.
    for (NodeId v = 0; v < n; ++v) {
      if (avail[v] > ready[v]) {
        const double s = earliest_start(t, v, /*insertion=*/true);
        start[v] = s;
        finish[v] = s + (exec != nullptr ? exec[v] : cost / speed[v]);
      }
    }
  }
  return {{start, n}, {finish, n}};
}

TimelineBuilder::NodeChoice TimelineBuilder::best_eft(TaskId t, bool insertion) {
  const CandidateRow row = eft_row(t, insertion);
  NodeId best = 0;
  double best_finish = row.finish[0];
  for (NodeId v = 1; v < row.finish.size(); ++v) {
    if (row.finish[v] < best_finish) {
      best_finish = row.finish[v];
      best = v;
    }
  }
  return {best, row.start[best], best_finish};
}

void TimelineBuilder::place(TaskId t, NodeId v, double start) {
  if (scratch_->placed[t] != 0) throw std::logic_error("task already placed");
  if (scratch_->pending_preds[t] != 0) throw std::logic_error("task has unplaced predecessors");
  const double duration = exec_time(t, v);
  assert(start >= data_ready_time(t, v) - 1e-9 && "start before data is ready");

  const TimelineScratch::Interval iv{start, start + duration, t};
  auto& lane = scratch_->busy[v];
  // (start, end) lexicographic order keeps *ends* non-decreasing too: a
  // zero-length interval placed at the start boundary of a longer one (the
  // only same-start case a valid placement can produce) sorts before it.
  // earliest_start's binary search relies on this invariant.
  const auto before = [](const TimelineScratch::Interval& a, const TimelineScratch::Interval& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.end < b.end;
  };
  if (lane.empty() || !before(iv, lane.back())) {
    // Sorts after the lane's last interval (every append-mode placement):
    // upper_bound would return end().
    assert((lane.empty() || lane.back().end <= iv.start + 1e-9) && "overlaps previous");
    lane.push_back(iv);
  } else {
    const auto pos = std::upper_bound(lane.begin(), lane.end(), iv, before);
    // Overlap check against neighbours (debug only; callers compute valid starts).
    assert((pos == lane.begin() || std::prev(pos)->end <= iv.start + 1e-9) && "overlaps previous");
    assert(iv.end <= pos->start + 1e-9 && "overlaps next");
    lane.insert(pos, iv);
  }

  const double finish = start + duration;
  scratch_->assignment[t] = Assignment{t, v, start, finish};
  scratch_->placed[t] = 1;
  ++placed_count_;
  makespan_ = std::max(makespan_, finish);
  // Ends are non-decreasing along a lane, so the lane maximum is
  // max(previous maximum, the new interval's end).
  scratch_->node_avail[v] = std::max(scratch_->node_avail[v], iv.end);
  auto& ready = scratch_->ready_list;
  if (scratch_->ready_live) {
    const auto it = std::lower_bound(ready.begin(), ready.end(), t);
    assert(it != ready.end() && *it == t && "placed task missing from the ready list");
    ready.erase(it);
  }

  // Fold t's contribution into each successor's data-ready row; once the
  // last predecessor is placed the row holds max over predecessors of
  // (finish + comm), exactly the value the adjacency walk used to compute.
  const std::size_t nodes = view_->node_count();
  const std::size_t succ_base = view_->successors_base(t);
  const auto succs = view_->successors(t);
  for (std::size_t i = 0; i < succs.size(); ++i) {
    const auto& edge = succs[i];
    if (--scratch_->pending_preds[edge.task] == 0 && scratch_->ready_live) {
      ready.insert(std::lower_bound(ready.begin(), ready.end(), edge.task), edge.task);
    }
    double* row = scratch_->data_ready.data() + edge.task * nodes;
    if (const double* comm = view_->comm_row_or_null(succ_base + i, v)) {
      // Cached comm row (small instances): exactly cost / strength[v][u]
      // per lane, +0.0 on the diagonal and all-zero for a zero-cost edge,
      // so one division-free fold covers every case below bit for bit.
      for (NodeId u = 0; u < nodes; ++u) {
        const double arrival = finish + comm[u];
        if (arrival > row[u]) row[u] = arrival;
      }
    } else if (edge.cost == 0.0) {
      // comm_time is identically zero for a zero-size transfer; the whole
      // row folds against the bare finish time.
      for (NodeId u = 0; u < nodes; ++u) row[u] = std::max(row[u], finish);
    } else {
      // SoA sweep over one strength row. The diagonal is +inf, so
      // cost / strength[v] is exactly comm_time's co-located 0 — the
      // branch-free form divides where the scalar code special-cased.
      const double* strength = view_->strength_row(v).data();
      for (NodeId u = 0; u < nodes; ++u) {
        const double arrival = finish + edge.cost / strength[u];
        if (arrival > row[u]) row[u] = arrival;
      }
    }
  }
}

Schedule TimelineBuilder::to_schedule() const {
  if (!complete()) throw std::logic_error("schedule is incomplete");
  Schedule s;
  s.reserve(view_->task_count());
  for (TaskId t = 0; t < view_->task_count(); ++t) s.add(scratch_->assignment[t]);
  return s;
}

}  // namespace saga
