#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <utility>

#include "common/hash.hpp"
#include "core/annealer.hpp"
#include "datasets/registry.hpp"
#include "sched/arena.hpp"
#include "sched/registry.hpp"
#include "sched/schedule_io.hpp"

namespace saga {
namespace {

/// Parameterized over stable test labels ("online-EFT", ...); the
/// registry spells each policy as `Online?policy=` plus the lowercased
/// suffix.
class OnlinePolicyValidity : public ::testing::TestWithParam<std::string> {
 protected:
  [[nodiscard]] SchedulerPtr scheduler(std::uint64_t seed) const {
    std::string policy = GetParam().substr(GetParam().find('-') + 1);
    for (char& c : policy) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return SchedulerRegistry::instance().make("Online?policy=" + policy, seed);
  }
};

TEST_P(OnlinePolicyValidity, ProducesValidSchedules) {
  const auto online = scheduler(3);
  for (const char* dataset : {"chains", "blast", "montage"}) {
    const auto inst = datasets::DatasetRegistry::instance().make(dataset, 5)->generate(0);
    const Schedule s = online->schedule(inst);
    const auto result = s.validate(inst);
    EXPECT_TRUE(result.ok) << GetParam() << " on " << dataset << ": " << result.message;
  }
}

TEST_P(OnlinePolicyValidity, ValidOnPisaInstances) {
  const auto online = scheduler(3);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto inst = pisa::random_chain_instance(seed);
    EXPECT_TRUE(online->schedule(inst).validate(inst).ok) << GetParam();
  }
}

TEST_P(OnlinePolicyValidity, DeterministicAcrossRuns) {
  const auto inst = datasets::DatasetRegistry::instance().make("chains", 7)->generate(1);
  const Schedule a = scheduler(9)->schedule(inst);
  const Schedule b = scheduler(9)->schedule(inst);
  for (TaskId t = 0; t < inst.graph.task_count(); ++t) {
    EXPECT_EQ(a.of_task(t).node, b.of_task(t).node);
  }
}

TEST_P(OnlinePolicyValidity, PolicyIsReusableAcrossInstances) {
  // Per-instance state (round-robin cursor, RNG) must not leak between
  // schedule() calls on one scheduler.
  const auto online = scheduler(4);
  const auto source = datasets::DatasetRegistry::instance().make("chains", 2);
  const auto inst = source->generate(0);
  const Schedule first = online->schedule(inst);
  (void)online->schedule(source->generate(1));
  const Schedule again = online->schedule(inst);
  EXPECT_DOUBLE_EQ(first.makespan(), again.makespan());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, OnlinePolicyValidity,
                         ::testing::Values("online-EFT", "online-RR", "online-Fastest",
                                           "online-Locality", "online-Random"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(OnlineGolden, SchedulesMatchParentDigest) {
  // Byte pins of every policy's schedules (one-shot and arena paths) over
  // the Table II datasets and the PISA chain instances.
  const std::pair<const char*, const char*> pinned[] = {
      {"Online?policy=eft", "055b10abbcc0c649"},
      {"Online?policy=rr", "1712aa44f038759e"},
      {"Online?policy=fastest", "7e4a7ea392be2113"},
      {"Online?policy=locality", "98bfa91dd574d5cf"},
      {"Online?policy=random", "c5caf127c96b07cf"},
      {"Online?policy=locality&tolerance=0", "a1c02aa1ba11de1f"},
  };
  const auto& datasets = datasets::DatasetRegistry::instance();
  for (const auto& [spec, digest] : pinned) {
    const auto online = SchedulerRegistry::instance().make(spec, 77);
    TimelineArena arena;
    std::string text;
    for (const auto& name : datasets.names("table2")) {
      const auto source = datasets.make(name, 3);
      for (std::size_t i = 0; i < 6; ++i) {
        const auto inst = source->generate(i);
        text += schedule_to_string(online->schedule(inst));
        text += schedule_to_string(online->schedule(inst, &arena));
      }
    }
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      text += schedule_to_string(online->schedule(pisa::random_chain_instance(seed), &arena));
    }
    EXPECT_EQ(hash_hex(fnv1a64(text)), digest) << spec;
  }
}

TEST(OnlineRegistry, UnknownPolicyThrows) {
  EXPECT_THROW((void)SchedulerRegistry::instance().make("Online?policy=nope", 1),
               std::invalid_argument);
}

TEST(OnlineEft, NeverBeatenByOnlineRandomOnAverage) {
  double eft_total = 0.0, random_total = 0.0;
  const auto& registry = SchedulerRegistry::instance();
  const auto eft = registry.make("Online?policy=eft", kDefaultSchedulerSeed);
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const auto inst = datasets::DatasetRegistry::instance().make("chains", seed)->generate(0);
    eft_total += eft->schedule(inst).makespan();
    random_total += registry.make("Online?policy=random", seed)->schedule(inst).makespan();
  }
  EXPECT_LE(eft_total, random_total);
}

TEST(OnlineFastest, MatchesOfflineFastestNode) {
  const auto& registry = SchedulerRegistry::instance();
  // Placing every revealed task on the fastest node serialises the graph
  // exactly as the offline FastestNode scheduler does.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto inst = pisa::random_chain_instance(seed);
    const auto online = registry.make("Online?policy=fastest", kDefaultSchedulerSeed);
    EXPECT_DOUBLE_EQ(online->schedule(inst).makespan(),
                     registry.make("FastestNode",
                                   kDefaultSchedulerSeed)->schedule(inst).makespan());
  }
}

TEST(OnlineEft, PriceOfNoLookaheadIsBounded) {
  const auto& registry = SchedulerRegistry::instance();
  // Online EFT cannot use ranks, but on chains there is nothing to rank:
  // it should match offline MCT exactly (same greedy rule, same dispatch
  // order on a chain).
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    ProblemInstance inst;
    Rng rng(seed);
    TaskId prev = inst.graph.add_task(rng.uniform(0.5, 1.5));
    for (int i = 0; i < 5; ++i) {
      const TaskId cur = inst.graph.add_task(rng.uniform(0.5, 1.5));
      inst.graph.add_dependency(prev, cur, rng.uniform(0.1, 1.0));
      prev = cur;
    }
    inst.network = Network(3);
    inst.network.set_speed(1, 2.0);
    const auto online = registry.make("Online?policy=eft", kDefaultSchedulerSeed);
    EXPECT_DOUBLE_EQ(online->schedule(inst).makespan(),
                     registry.make("MCT", kDefaultSchedulerSeed)->schedule(inst).makespan());
  }
}

TEST(OnlineLocality, SticksToInputHomeWhenCommIsExpensive) {
  // Huge data, weak links: the locality policy keeps the consumer where
  // its input lives even though another node is nominally faster.
  ProblemInstance inst;
  const TaskId a = inst.graph.add_task("a", 1.0);
  const TaskId b = inst.graph.add_task("b", 1.0);
  inst.graph.add_dependency(a, b, 100.0);
  inst.network = Network(2);
  inst.network.set_speed(1, 1.1);  // marginally faster elsewhere
  inst.network.set_strength(0, 1, 0.01);
  const Schedule s = SchedulerRegistry::instance()
                         .make("Online?policy=locality", kDefaultSchedulerSeed)
                         ->schedule(inst);
  EXPECT_EQ(s.of_task(b).node, s.of_task(a).node);
}

TEST(SimulateOnline, RevealsInArrivalOrder) {
  // A later-arriving task must not be dispatched before an earlier one:
  // with round-robin on a 2-node network the first two reveals (source,
  // then its first-finishing successor) take nodes 0 and 1 in order.
  ProblemInstance inst;
  const TaskId src = inst.graph.add_task("src", 1.0);
  const TaskId fast = inst.graph.add_task("fast", 0.1);
  const TaskId slow = inst.graph.add_task("slow", 5.0);
  inst.graph.add_dependency(src, fast, 0.0);
  inst.graph.add_dependency(src, slow, 0.0);
  inst.network = Network(2);
  const Schedule s = SchedulerRegistry::instance()
                         .make("Online?policy=rr", kDefaultSchedulerSeed)
                         ->schedule(inst);
  EXPECT_EQ(s.of_task(src).node, 0u);
  EXPECT_TRUE(s.validate(inst).ok);
}

TEST(OnlineVsOffline, LookaheadHasMeasurableValue) {
  // Across a dataset, offline HEFT should beat online EFT on average —
  // quantifying the price of online-ness.
  double online_total = 0.0, offline_total = 0.0;
  const auto online =
      SchedulerRegistry::instance().make("Online?policy=eft", kDefaultSchedulerSeed);
  const auto heft = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  for (std::size_t i = 0; i < 30; ++i) {
    const auto inst = datasets::DatasetRegistry::instance().make("montage", 11)->generate(i % 4);
    online_total += online->schedule(inst).makespan();
    offline_total += heft->schedule(inst).makespan();
  }
  EXPECT_GE(online_total, offline_total * 0.99);
}

}  // namespace
}  // namespace saga
