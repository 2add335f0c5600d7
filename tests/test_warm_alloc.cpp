#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/annealer.hpp"
#include "core/app_specific.hpp"
#include "sched/arena.hpp"
#include "sched/registry.hpp"

/// Pins the "allocation-free once warm" contract of sched/arena.hpp: after
/// a few plans have sized an arena's view and scratch, further
/// `plan_makespan` calls on the same instance perform no heap allocation,
/// for every @benchmark scheduler. This executable replaces the global
/// operator new to count allocations, so it stays a file of its own.

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace saga {
namespace {

/// Heap allocations made by ten plans of `scheduler` on `inst` through an
/// arena that three earlier plans have warmed.
std::size_t warm_plan_allocations(const Scheduler& scheduler, const ProblemInstance& inst) {
  TimelineArena arena;
  for (int warm = 0; warm < 3; ++warm) (void)scheduler.plan_makespan(inst, &arena);
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 10; ++rep) (void)scheduler.plan_makespan(inst, &arena);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

void expect_allocation_free(const ProblemInstance& inst) {
  const auto& registry = SchedulerRegistry::instance();
  const std::vector<std::string> names = registry.names("benchmark");
  ASSERT_EQ(names.size(), 15u);
  for (const auto& name : names) {
    const SchedulerPtr scheduler = registry.make(name, 7);
    EXPECT_EQ(warm_plan_allocations(*scheduler, inst), 0u) << name;
  }
}

TEST(WarmArena, BenchmarkSchedulersPlanRandomChainWithoutAllocating) {
  expect_allocation_free(pisa::random_chain_instance(5));
}

TEST(WarmArena, BenchmarkSchedulersPlanAppSpecificWorkflowWithoutAllocating) {
  const pisa::PisaOptions options = pisa::app_specific_options("srasearch", 1.0, 11);
  const ProblemInstance inst = options.make_initial(11);
  ASSERT_GE(inst.graph.task_count(), 20u);
  expect_allocation_free(inst);
}

}  // namespace
}  // namespace saga
