#include <gtest/gtest.h>

#include "sched/registry.hpp"
#include "sched/schedule_io.hpp"

namespace saga {
namespace {

TEST(ScheduleIo, RoundTripsHeftOnFig1) {
  const auto inst = fig1_instance();
  const Schedule original =
      SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed)->schedule(inst);
  const Schedule copy = schedule_from_string(schedule_to_string(original));
  ASSERT_EQ(copy.size(), original.size());
  for (TaskId t = 0; t < inst.graph.task_count(); ++t) {
    EXPECT_EQ(copy.of_task(t).node, original.of_task(t).node);
    EXPECT_EQ(copy.of_task(t).start, original.of_task(t).start);
    EXPECT_EQ(copy.of_task(t).finish, original.of_task(t).finish);
  }
  EXPECT_TRUE(copy.validate(inst).ok);
}

TEST(ScheduleIo, EmptyScheduleRoundTrips) {
  const Schedule copy = schedule_from_string(schedule_to_string(Schedule{}));
  EXPECT_EQ(copy.size(), 0u);
}

TEST(ScheduleIo, PreservesExactDoubles) {
  Schedule s;
  s.add({0, 1, 0.1 + 0.2, 1e-300});
  const Schedule copy = schedule_from_string(schedule_to_string(s));
  EXPECT_EQ(copy.of_task(0).start, 0.1 + 0.2);
  EXPECT_EQ(copy.of_task(0).finish, 1e-300);
}

TEST(ScheduleIo, RejectsWrongMagic) {
  EXPECT_THROW((void)schedule_from_string("saga-instance v1\n"), std::runtime_error);
}

TEST(ScheduleIo, RejectsTruncation) {
  const std::string text = "saga-schedule v1\nassignments 2\nassign 0 0 0 1\n";
  EXPECT_THROW((void)schedule_from_string(text), std::runtime_error);
}

TEST(ScheduleIo, RejectsMalformedRows) {
  const std::string text = "saga-schedule v1\nassignments 1\nassign 0 zero 0 1\n";
  EXPECT_THROW((void)schedule_from_string(text), std::runtime_error);
}

TEST(ScheduleIo, SkipsCommentsAndBlankLines) {
  const std::string text =
      "# a comment\nsaga-schedule v1\n\nassignments 1\n# another\nassign 3 1 0.5 1.5\n";
  const Schedule s = schedule_from_string(text);
  EXPECT_EQ(s.of_task(3).node, 1u);
}

TEST(ScheduleIo, LoadedScheduleFailsValidationOnWrongInstance) {
  // A schedule for Fig. 1 does not validate against a 1-node instance.
  const Schedule original =
      SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed)->schedule(fig1_instance());
  const Schedule copy = schedule_from_string(schedule_to_string(original));
  ProblemInstance other;
  other.graph.add_task("x", 1.0);
  other.network = Network(1);
  EXPECT_FALSE(copy.validate(other).ok);
}

}  // namespace
}  // namespace saga
