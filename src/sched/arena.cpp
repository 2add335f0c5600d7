#include "sched/arena.hpp"

namespace saga {

void TimelineScratch::reset(std::size_t tasks, std::size_t nodes) {
  busy.resize(nodes);
  for (auto& lane : busy) lane.clear();
  assignment.resize(tasks);
  placed.assign(tasks, 0);
  // Sized but not zeroed: TimelineBuilder::init writes every entry right
  // after reset, so a fill here would be a second pass over the array.
  pending_preds.resize(tasks);
  data_ready.assign(tasks * nodes, 0.0);
  node_avail.assign(nodes, 0.0);
  row_start.resize(nodes);
  row_finish.resize(nodes);
  ready_list.clear();
  ready_live = false;
}

}  // namespace saga
