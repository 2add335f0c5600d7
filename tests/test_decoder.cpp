#include <gtest/gtest.h>

#include "sched/decoder.hpp"
#include "sched/ranks.hpp"
#include "sched/registry.hpp"

namespace saga {
namespace {

ProblemInstance fork_join() {
  ProblemInstance inst;
  const TaskId a = inst.graph.add_task("a", 1.0);
  const TaskId b = inst.graph.add_task("b", 2.0);
  const TaskId c = inst.graph.add_task("c", 2.0);
  const TaskId d = inst.graph.add_task("d", 1.0);
  inst.graph.add_dependency(a, b, 1.0);
  inst.graph.add_dependency(a, c, 1.0);
  inst.graph.add_dependency(b, d, 1.0);
  inst.graph.add_dependency(c, d, 1.0);
  inst.network = Network(2);
  return inst;
}

TEST(Decoder, ProducesValidSchedules) {
  const auto inst = fork_join();
  ScheduleEncoding encoding;
  encoding.assignment = {0, 1, 0, 1};
  encoding.priority = {4, 3, 2, 1};
  const Schedule s = decode_schedule(inst, encoding);
  EXPECT_TRUE(s.validate(inst).ok);
  for (TaskId t = 0; t < 4; ++t) EXPECT_EQ(s.of_task(t).node, encoding.assignment[t]);
}

TEST(Decoder, PriorityBreaksReadyTies) {
  ProblemInstance inst;
  inst.graph.add_task("x", 1.0);
  inst.graph.add_task("y", 1.0);
  inst.network = Network(1);
  ScheduleEncoding encoding;
  encoding.assignment = {0, 0};
  encoding.priority = {0.0, 1.0};  // y first
  const Schedule s = decode_schedule(inst, encoding);
  EXPECT_LT(s.of_task(1).start, s.of_task(0).start);
}

TEST(Decoder, RespectsPrecedenceRegardlessOfPriority) {
  const auto inst = fork_join();
  ScheduleEncoding encoding;
  encoding.assignment = {0, 0, 0, 0};
  encoding.priority = {0, 0, 0, 100};  // sink "wants" to go first but can't
  const Schedule s = decode_schedule(inst, encoding);
  EXPECT_TRUE(s.validate(inst).ok);
  EXPECT_GT(s.of_task(3).start, s.of_task(0).start);
}

TEST(Decoder, RejectsBadEncodings) {
  const auto inst = fork_join();
  ScheduleEncoding short_encoding;
  short_encoding.assignment = {0, 0};
  short_encoding.priority = {0, 0};
  EXPECT_THROW((void)decode_schedule(inst, short_encoding), std::invalid_argument);

  ScheduleEncoding bad_node;
  bad_node.assignment = {0, 0, 0, 9};
  bad_node.priority = {0, 0, 0, 0};
  EXPECT_THROW((void)decode_schedule(inst, bad_node), std::invalid_argument);
}

TEST(Decoder, HeftEncodingReproducesHeftMakespan) {
  // Decoding HEFT's own (assignment, upward-rank priority) cannot do better
  // than HEFT with insertion, but must stay close; on Fig. 1 they coincide.
  const auto inst = fig1_instance();
  const Schedule heft =
      SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed)->schedule(inst);
  ScheduleEncoding encoding;
  encoding.assignment.resize(inst.graph.task_count());
  for (TaskId t = 0; t < inst.graph.task_count(); ++t) {
    encoding.assignment[t] = heft.of_task(t).node;
  }
  encoding.priority = upward_ranks(inst);
  EXPECT_DOUBLE_EQ(decoded_makespan(inst, encoding), heft.makespan());
}

}  // namespace
}  // namespace saga
