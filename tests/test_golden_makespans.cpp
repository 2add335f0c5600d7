// Golden-makespan regression suite: pins the exact makespan of every
// registered scheduler on fixed seeded instances (the Fig. 1 worked
// example, a PISA chain instance, a Chameleon-network workflow, and two
// scientific-workflow dataset instances). The table in
// golden_makespans.inc was generated from the pre-kernel implementation
// (PR 1 seed) at full double precision, so these tests prove the shared
// evaluation kernel — InstanceView, data-ready memoization, binary-search
// gap lookup, arena reuse — is behaviour-preserving bit for bit. They also
// run every scheduler through both entry points (with and without a
// TimelineArena, reusing one arena across all schedulers) and require
// identical schedules from each.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include <algorithm>
#include <cctype>

#include "core/annealer.hpp"
#include "datasets/chameleon.hpp"
#include "datasets/registry.hpp"
#include "graph/problem_instance.hpp"
#include "sched/arena.hpp"
#include "sched/registry.hpp"

namespace {

using namespace saga;

struct GoldenEntry {
  const char* fixture;
  const char* scheduler;
  double makespan;
};

constexpr GoldenEntry kGolden[] = {
#include "golden_makespans.inc"
};

const ProblemInstance& fixture(const std::string& name) {
  static const std::map<std::string, ProblemInstance> fixtures = [] {
    std::map<std::string, ProblemInstance> out;
    out.emplace("fig1", fig1_instance());
    out.emplace("chain7", pisa::random_chain_instance(7));
    ProblemInstance chameleon =
        datasets::DatasetRegistry::instance().make("blast", 42)->generate(0);
    chameleon.network = datasets::chameleon_network(derive_seed(42, {0xc4a3ULL}));
    out.emplace("chameleon_blast", std::move(chameleon));
    out.emplace("blast0", datasets::DatasetRegistry::instance().make("blast", 42)->generate(0));
    out.emplace("montage0", datasets::DatasetRegistry::instance().make("montage", 42)->generate(0));
    return out;
  }();
  return fixtures.at(name);
}

TEST(GoldenMakespans, TableCoversEveryRegisteredScheduler) {
  std::map<std::string, int> covered;
  for (const auto& entry : kGolden) ++covered[entry.scheduler];
  for (const auto& name : SchedulerRegistry::instance().names("table1")) {
    EXPECT_TRUE(covered.contains(name)) << name << " missing from the golden table";
  }
  for (const auto& name : SchedulerRegistry::instance().names("extension")) {
    EXPECT_TRUE(covered.contains(name)) << name << " missing from the golden table";
  }
}

TEST(GoldenMakespans, BitIdenticalWithoutArena) {
  for (const auto& entry : kGolden) {
    const auto& inst = fixture(entry.fixture);
    const Schedule schedule =
        SchedulerRegistry::instance().make(entry.scheduler, kDefaultSchedulerSeed)->schedule(inst);
    EXPECT_EQ(schedule.makespan(), entry.makespan)
        << entry.scheduler << " on " << entry.fixture;
    EXPECT_TRUE(schedule.validate(inst).ok) << entry.scheduler << " on " << entry.fixture;
  }
}

TEST(GoldenMakespans, BitIdenticalWithSharedArena) {
  const auto& registry = SchedulerRegistry::instance();
  // One arena across every (scheduler, fixture) combination: the view is
  // re-synced between fixtures and the scratch pool is recycled throughout,
  // exactly the PISA usage pattern.
  TimelineArena arena;
  for (const auto& entry : kGolden) {
    const auto& inst = fixture(entry.fixture);
    const Schedule schedule =
        registry.make(entry.scheduler, kDefaultSchedulerSeed)->schedule(inst, &arena);
    EXPECT_EQ(schedule.makespan(), entry.makespan)
        << entry.scheduler << " on " << entry.fixture << " (arena path)";
  }
}

TEST(GoldenMakespans, RegistrySpecConstructionIsBitIdentical) {
  // Every golden pin must also hold for schedulers constructed through the
  // descriptor registry's spec path — lowercase spec strings resolved via
  // case-insensitive lookup, the explicit default seed spelled as a spec
  // parameter for the randomized ones.
  const auto& registry = SchedulerRegistry::instance();
  for (const auto& entry : kGolden) {
    const auto& inst = fixture(entry.fixture);
    std::string spec_string = entry.scheduler;
    std::transform(spec_string.begin(), spec_string.end(), spec_string.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    if (registry.resolve(entry.scheduler).randomized) {
      spec_string += "?seed=" + std::to_string(kDefaultSchedulerSeed);
    }
    const Schedule schedule =
        registry.make(parse_spec(spec_string, "scheduler"), kDefaultSchedulerSeed)->schedule(inst);
    EXPECT_EQ(schedule.makespan(), entry.makespan)
        << spec_string << " on " << entry.fixture << " (registry spec path)";
  }
}

TEST(GoldenMakespans, ArenaAndOneShotSchedulesAgreeAssignmentByAssignment) {
  TimelineArena arena;
  const auto& registry = SchedulerRegistry::instance();
  for (const auto& name : registry.names("benchmark", NameOrder::kLexicographic)) {
    const auto& inst = fixture("blast0");
    const auto scheduler = registry.make(name, kDefaultSchedulerSeed);
    const Schedule one_shot = scheduler->schedule(inst);
    const Schedule pooled = scheduler->schedule(inst, &arena);
    ASSERT_EQ(one_shot.size(), pooled.size()) << name;
    for (const auto& a : one_shot.assignments()) {
      const auto& b = pooled.of_task(a.task);
      EXPECT_EQ(a.node, b.node) << name << " task " << a.task;
      EXPECT_EQ(a.start, b.start) << name << " task " << a.task;
      EXPECT_EQ(a.finish, b.finish) << name << " task " << a.task;
    }
  }
}

}  // namespace
