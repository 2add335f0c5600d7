// Hand-computed known-answer tests for the discrete-event simulator's fault
// machinery (src/sim). Every scenario here is small enough to work out on
// paper, and every expected value is exactly representable in a double, so
// the assertions use exact equality — any drift in the crash/re-execution,
// slowdown-repricing, jitter-sampling, or tie-breaking semantics fails
// loudly rather than hiding inside a tolerance.
//
// The headline pin: with no faults and no jitter, eager replay of a
// builder-produced plan reproduces the static TimelineBuilder makespan
// *exactly* (same arithmetic on the same doubles), which is what makes the
// simulator's degradation metric a true ratio against the fault-free run.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "datasets/registry.hpp"
#include "graph/network.hpp"
#include "graph/problem_instance.hpp"
#include "graph/task_graph.hpp"
#include "sched/registry.hpp"
#include "sched/schedule.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace saga;
using sim::Event;
using sim::FaultEvent;
using sim::JitterEvent;
using sim::SimJob;
using sim::SimReport;

/// Replays a fixed plan regardless of the instance — lets a test pin node
/// placements (e.g. to force a cross-node transfer) without reasoning about
/// a heuristic's choices.
class FixedScheduler final : public Scheduler {
 public:
  explicit FixedScheduler(Schedule plan) : plan_(std::move(plan)) {}
  [[nodiscard]] std::string_view name() const override { return "Fixed"; }
  [[nodiscard]] Schedule schedule(const ProblemInstance&, TimelineArena*) const override {
    return plan_;
  }
  using Scheduler::schedule;

 private:
  Schedule plan_;
};

SimJob job_at(double arrival, TaskGraph graph) {
  SimJob job;
  job.arrival = arrival;
  job.graph = std::move(graph);
  return job;
}

TaskGraph single_task(double cost) {
  TaskGraph graph;
  graph.add_task(cost);
  return graph;
}

FaultEvent crash_at(std::size_t node, double at) {
  FaultEvent f;
  f.kind = FaultEvent::Kind::kCrash;
  f.node = node;
  f.at = at;
  return f;
}

FaultEvent recover_at(std::size_t node, double at) {
  FaultEvent f;
  f.kind = FaultEvent::Kind::kRecover;
  f.node = node;
  f.at = at;
  return f;
}

FaultEvent slowdown(std::size_t node, double from, double until, double factor) {
  FaultEvent f;
  f.kind = FaultEvent::Kind::kSlowdown;
  f.node = node;
  f.at = from;
  f.until = until;
  f.factor = factor;
  return f;
}

JitterEvent jitter_global(double at, double factor) {
  JitterEvent j;
  j.at = at;
  j.factor = factor;
  return j;
}

JitterEvent jitter_link(double at, std::size_t a, std::size_t b, double factor) {
  JitterEvent j;
  j.at = at;
  j.has_link = true;
  j.a = a;
  j.b = b;
  j.factor = factor;
  return j;
}

// ---- Crash / recover --------------------------------------------------

// One node (speed 1), one task of cost 10, crash at t=4, recover at t=6.
// The attempt 0..4 is destroyed; the full cost re-executes 6..16. Busy time
// counts the lost attempt: 4 + 10 = 14 of a 16-unit makespan.
TEST(SimFaults, CrashMidTaskReexecutesExactlyTheLostWork) {
  const Network net(1);
  const auto scheduler = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  std::vector<Event> trace;
  const SimReport report =
      sim::simulate_jobs(net, {job_at(0.0, single_task(10.0))}, *scheduler,
                         {crash_at(0, 4.0), recover_at(0, 6.0)}, {}, nullptr, &trace);

  EXPECT_EQ(report.jobs, 1u);
  EXPECT_EQ(report.completed_jobs, 1u);
  EXPECT_EQ(report.tasks_completed, 1u);
  EXPECT_EQ(report.reexecutions, 1u);
  EXPECT_EQ(report.makespan, 16.0);
  EXPECT_EQ(report.response.mean, 16.0);
  EXPECT_EQ(report.degradation.mean, 1.6);  // 16 / planned 10
  ASSERT_EQ(report.utilization.size(), 1u);
  EXPECT_EQ(report.utilization[0], 14.0 / 16.0);

  // The full event order, byte for byte. The planned finish at t=10 is a
  // stale generation and must not appear.
  EXPECT_EQ(sim::trace_to_string(trace),
            "job-arrival t=0 job=0\n"
            "task-start t=0 job=0 task=0 node=0\n"
            "node-crash t=4 node=0\n"
            "task-lost t=4 job=0 task=0 node=0\n"
            "node-recover t=6 node=0\n"
            "task-start t=6 job=0 task=0 node=0\n"
            "task-finish t=16 job=0 task=0 node=0\n");
}

// A crash with no recovery strands the job: the event loop must still
// drain and report the incomplete run instead of hanging.
TEST(SimFaults, PermanentCrashLeavesTheJobIncomplete) {
  const Network net(1);
  const auto scheduler = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const SimReport report = sim::simulate_jobs(net, {job_at(0.0, single_task(10.0))},
                                              *scheduler, {crash_at(0, 1.0)}, {});
  EXPECT_EQ(report.jobs, 1u);
  EXPECT_EQ(report.completed_jobs, 0u);
  EXPECT_EQ(report.tasks_completed, 0u);
  EXPECT_EQ(report.reexecutions, 1u);
  EXPECT_EQ(report.makespan, 0.0);  // no task ever finished
  EXPECT_EQ(report.response.count, 0u);
}

// A node that is down when work arrives delays it without destroying
// anything: crash at 0, job arrives at 1, recover at 5 -> runs 5..7.
TEST(SimFaults, RecoverRestoresCapacityForQueuedWork) {
  const Network net(1);
  const auto scheduler = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const SimReport report =
      sim::simulate_jobs(net, {job_at(1.0, single_task(2.0))}, *scheduler,
                         {crash_at(0, 0.0), recover_at(0, 5.0)}, {});
  EXPECT_EQ(report.completed_jobs, 1u);
  EXPECT_EQ(report.reexecutions, 0u);
  EXPECT_EQ(report.makespan, 7.0);
  EXPECT_EQ(report.response.mean, 6.0);  // finished 7, arrived 1
  ASSERT_EQ(report.utilization.size(), 1u);
  EXPECT_EQ(report.utilization[0], 2.0 / 7.0);
}

// ---- Slowdown windows -------------------------------------------------

// Task of cost 10 on a unit-speed node, slowdown factor 2 over [2, 5):
// 2 units done by t=2, then 3 wall units at rate 1/2 leave 6.5 units, done
// at t=11.5. A second chained task (cost 10) starts after the window and
// keeps its full-speed duration: only overlapping work stretches.
TEST(SimFaults, SlowdownStretchesExactlyTheOverlappingWork) {
  const Network net(1);
  TaskGraph graph;
  const TaskId a = graph.add_task(10.0);
  const TaskId b = graph.add_task(10.0);
  graph.add_dependency(a, b, 0.0);
  const auto scheduler = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const SimReport report = sim::simulate_jobs(net, {job_at(0.0, std::move(graph))},
                                              *scheduler, {slowdown(0, 2.0, 5.0, 2.0)}, {});
  EXPECT_EQ(report.completed_jobs, 1u);
  EXPECT_EQ(report.tasks_completed, 2u);
  EXPECT_EQ(report.makespan, 21.5);  // 11.5 + 10, second task unstretched
  EXPECT_EQ(report.degradation.mean, 21.5 / 20.0);
  ASSERT_EQ(report.utilization.size(), 1u);
  EXPECT_EQ(report.utilization[0], 1.0);  // the node never idles
}

// Environment-before-work tie: a slowdown window opening at the same
// instant a task starts applies to the task (scripted events are pushed
// before arrivals, and the queue pops timestamp ties in push order).
// Window [0, 2) factor 2: 1 unit done by t=2, 9 remain, finish at t=11.
TEST(SimFaults, SlowdownBeginningAtDispatchTimeAppliesToTheTask) {
  const Network net(1);
  const auto scheduler = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const SimReport report = sim::simulate_jobs(net, {job_at(0.0, single_task(10.0))},
                                              *scheduler, {slowdown(0, 0.0, 2.0, 2.0)}, {});
  EXPECT_EQ(report.makespan, 11.0);
}

// A window that opens after all work is done changes nothing but the trace.
TEST(SimFaults, SlowdownOutsideExecutionHasNoEffect) {
  const Network net(1);
  const auto scheduler = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  std::vector<Event> trace;
  const SimReport report =
      sim::simulate_jobs(net, {job_at(0.0, single_task(10.0))}, *scheduler,
                         {slowdown(0, 50.0, 60.0, 3.0)}, {}, nullptr, &trace);
  EXPECT_EQ(report.makespan, 10.0);
  const std::string rendered = sim::trace_to_string(trace);
  EXPECT_NE(rendered.find("slowdown-begin t=50 node=0 factor=3"), std::string::npos);
  EXPECT_NE(rendered.find("slowdown-end t=60 node=0"), std::string::npos);
}

// ---- Communication jitter ---------------------------------------------

// Fixture plan: t0 (cost 1) on node 0, t1 (cost 1) on node 1, dependency
// carrying 4 data units over a unit-strength link. Fault-free replay:
// t0 runs 0..1, transfer takes 4, t1 runs 5..6.
struct CrossNodePlan {
  Network net{2};
  TaskGraph graph;
  Schedule plan;

  CrossNodePlan() {
    const TaskId a = graph.add_task(1.0);
    const TaskId b = graph.add_task(1.0);
    graph.add_dependency(a, b, 4.0);
    plan.add({a, 0, 0.0, 1.0});
    plan.add({b, 1, 5.0, 6.0});
  }
};

TEST(SimFaults, JitterFreeTransferMatchesThePlan) {
  CrossNodePlan fx;
  const FixedScheduler scheduler(fx.plan);
  const SimReport report =
      sim::simulate_jobs(fx.net, {job_at(0.0, fx.graph)}, scheduler, {}, {});
  EXPECT_EQ(report.makespan, 6.0);
  EXPECT_EQ(report.degradation.mean, 1.0);
}

TEST(SimFaults, GlobalJitterScalesTheTransfer) {
  CrossNodePlan fx;
  const FixedScheduler scheduler(fx.plan);
  const SimReport report = sim::simulate_jobs(fx.net, {job_at(0.0, fx.graph)}, scheduler,
                                              {}, {jitter_global(0.0, 1.5)});
  EXPECT_EQ(report.makespan, 8.0);  // 1 + 4*1.5 + 1
}

// A per-link factor overrides the global one, and the (a, b) key is
// direction-insensitive: the script names the link as (1, 0) while the
// transfer runs 0 -> 1.
TEST(SimFaults, LinkJitterOverridesGlobalAndIgnoresDirection) {
  CrossNodePlan fx;
  const FixedScheduler scheduler(fx.plan);
  const SimReport report =
      sim::simulate_jobs(fx.net, {job_at(0.0, fx.graph)}, scheduler, {},
                         {jitter_global(0.0, 2.0), jitter_link(0.0, 1, 0, 0.5)});
  EXPECT_EQ(report.makespan, 4.0);  // 1 + 4*0.5 + 1
}

// The factor is sampled when the producing task finishes. A change at
// exactly that instant applies (environment before work at equal
// timestamps); a change after it does not retro-price the transfer.
TEST(SimFaults, JitterIsSampledAtTransferStart) {
  CrossNodePlan fx;
  const FixedScheduler scheduler(fx.plan);

  const SimReport tied = sim::simulate_jobs(fx.net, {job_at(0.0, fx.graph)}, scheduler, {},
                                            {jitter_global(1.0, 2.0)});
  EXPECT_EQ(tied.makespan, 10.0);  // 1 + 4*2 + 1: the t=1 change applies

  const SimReport late = sim::simulate_jobs(fx.net, {job_at(0.0, fx.graph)}, scheduler, {},
                                            {jitter_global(3.0, 10.0)});
  EXPECT_EQ(late.makespan, 6.0);  // transfer already priced at t=1
}

// ---- Shared-network queueing ------------------------------------------

// Two single-task jobs (cost 10) on one node, arriving at t=0 and t=1.
// Each is planned on the pristine network (planned makespan 10), but the
// second queues behind the first: runs 10..20, response 19.
TEST(SimFaults, LaterJobsQueueBehindEarlierOnes) {
  const Network net(1);
  const auto scheduler = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const SimReport report =
      sim::simulate_jobs(net, {job_at(0.0, single_task(10.0)), job_at(1.0, single_task(10.0))},
                         *scheduler, {}, {});
  EXPECT_EQ(report.completed_jobs, 2u);
  EXPECT_EQ(report.makespan, 20.0);
  EXPECT_EQ(report.response.min, 10.0);
  EXPECT_EQ(report.response.max, 19.0);
  EXPECT_EQ(report.degradation.max, 1.9);  // 19 / planned 10
}

// ---- Zero-fault replay exactness --------------------------------------

// With no faults, no jitter, and one job arriving at t=0, eager replay of
// a builder plan reproduces the static makespan EXACTLY (same doubles):
// start = max(previous finish on the node, data-ready) in both worlds, and
// speed/1.0 and transfer*1.0 are exact. Degradation is then exactly 1.
TEST(SimFaults, ZeroFaultReplayMatchesTheStaticMakespanExactly) {
  const std::vector<std::string> roster = {"HEFT", "CPoP", "MinMin",
                                           "MaxMin", "MCT", "OLB"};
  std::vector<ProblemInstance> instances;
  instances.push_back(fig1_instance());
  const auto source =
      datasets::DatasetRegistry::instance().make("chains?chains=3&length=4&nodes=3", 7);
  instances.push_back(source->generate(0));
  instances.push_back(source->generate(1));

  for (const std::string& name : roster) {
    const auto scheduler = SchedulerRegistry::instance().make(name, kDefaultSchedulerSeed);
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const ProblemInstance& inst = instances[i];
      const Schedule planned = scheduler->schedule(inst);
      const SimReport report =
          sim::simulate_jobs(inst.network, {job_at(0.0, inst.graph)}, *scheduler, {}, {});
      EXPECT_EQ(report.makespan, planned.makespan()) << name << " instance " << i;
      EXPECT_EQ(report.degradation.mean, 1.0) << name << " instance " << i;
      EXPECT_EQ(report.completed_jobs, 1u);
      EXPECT_EQ(report.tasks_completed, inst.graph.task_count());
      EXPECT_EQ(report.reexecutions, 0u);
    }
  }
}

// The same pin through the declarative front door: a zero-fault scenario
// with a single t=0 arrival is the static experiment.
TEST(SimFaults, ZeroFaultScenarioMatchesTheStaticSchedule) {
  sim::Scenario scenario;
  scenario.dataset = "chains?chains=2&length=3&nodes=3";
  scenario.arrivals.kind = sim::ArrivalProcess::Kind::kTrace;
  scenario.arrivals.times = {0.0};
  const std::uint64_t seed = 42;
  const auto source = datasets::DatasetRegistry::instance().make(scenario.dataset, seed);
  const ProblemInstance inst = source->generate(0);

  for (const std::string name : {"HEFT", "MinMin"}) {
    const auto scheduler = SchedulerRegistry::instance().make(name, kDefaultSchedulerSeed);
    const SimReport report = sim::simulate_scenario(scenario, *scheduler, seed);
    EXPECT_EQ(report.makespan, scheduler->schedule(inst).makespan()) << name;
    EXPECT_EQ(report.degradation.mean, 1.0) << name;
  }
}

// ---- Script validation at the simulate_jobs boundary ------------------

TEST(SimFaults, MalformedScriptsThrow) {
  const Network net(2);
  const auto scheduler = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const std::vector<SimJob> jobs = {job_at(0.0, single_task(1.0))};

  // Decreasing arrival times.
  EXPECT_THROW((void)sim::simulate_jobs(
                   net, {job_at(2.0, single_task(1.0)), job_at(1.0, single_task(1.0))},
                   *scheduler, {}, {}),
               std::invalid_argument);
  // Fault node out of range for the actual network.
  EXPECT_THROW((void)sim::simulate_jobs(net, jobs, *scheduler, {crash_at(5, 1.0)}, {}),
               std::invalid_argument);
  // Recover with no preceding crash breaks the alternation invariant.
  EXPECT_THROW((void)sim::simulate_jobs(net, jobs, *scheduler, {recover_at(0, 1.0)}, {}),
               std::invalid_argument);
  // Overlapping slowdown windows on the same node.
  EXPECT_THROW((void)sim::simulate_jobs(
                   net, jobs, *scheduler,
                   {slowdown(0, 1.0, 5.0, 2.0), slowdown(0, 4.0, 6.0, 2.0)}, {}),
               std::invalid_argument);
  // A jitter link needs two distinct endpoints.
  EXPECT_THROW(
      (void)sim::simulate_jobs(net, jobs, *scheduler, {}, {jitter_link(0.0, 1, 1, 2.0)}),
      std::invalid_argument);
}

// An empty job list is a valid (if dull) simulation.
TEST(SimFaults, NoJobsProducesAnEmptyReport) {
  const Network net(1);
  const auto scheduler = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const SimReport report = sim::simulate_jobs(net, {}, *scheduler, {}, {});
  EXPECT_EQ(report.jobs, 0u);
  EXPECT_EQ(report.makespan, 0.0);
  EXPECT_EQ(report.response.count, 0u);
}

}  // namespace
