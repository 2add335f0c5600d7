#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "datasets/registry.hpp"
#include "exp/json.hpp"
#include "graph/network.hpp"
#include "graph/problem_instance.hpp"
#include "graph/serialization.hpp"
#include "sched/registry.hpp"
#include "serve/codec.hpp"

namespace saga::serve {
namespace {

using exp::Json;

/// Structural equality via the exact text serialization: two instances are
/// the same iff their round-trip-exact text forms match byte for byte.
void expect_same_instance(const ProblemInstance& a, const ProblemInstance& b) {
  EXPECT_EQ(instance_to_string(a), instance_to_string(b));
}

TEST(ServeCodec, Fig1RoundTripsExactly) {
  const ProblemInstance inst = fig1_instance();
  const Json encoded = instance_to_json(inst);
  const ProblemInstance decoded = instance_from_json(encoded);
  expect_same_instance(inst, decoded);
  // encode -> decode -> encode is byte-identical: the codec is canonical.
  EXPECT_EQ(encoded.dump(), instance_to_json(decoded).dump());
}

TEST(ServeCodec, RegistryInstancesRoundTripByteIdentically) {
  // 25 instances spanning every structural corner the registry generates:
  // random graph families, workflows, IoT apps, and parameterized specs.
  const std::vector<std::string> specs = {
      "chains", "in_trees", "out_trees",   "erdos",      "montage",
      "blast",  "bwa",      "epigenomics", "seismology", "etl",
      "stats",  "train",    "predict",     "chains?length=17", "erdos?n=12&p=0.3",
  };
  std::size_t round_tripped = 0;
  for (const auto& spec : specs) {
    for (std::size_t index = 0; index < 2 && round_tripped < 25; ++index) {
      const ProblemInstance inst =
          datasets::DatasetRegistry::instance().make(spec, 42)->generate(index);
      const ProblemInstance decoded = instance_from_json(instance_to_json(inst));
      expect_same_instance(inst, decoded);
      EXPECT_EQ(instance_to_json(inst).dump(), instance_to_json(decoded).dump())
          << "codec not canonical for " << spec << "[" << index << "]";
      ++round_tripped;
    }
  }
  EXPECT_GE(round_tripped, 25u);
}

TEST(ServeCodec, InfiniteStrengthsCrossTheWire) {
  ProblemInstance inst;
  inst.graph.add_task("a", 1.0);
  inst.graph.add_task("b", 2.0);
  ASSERT_TRUE(inst.graph.add_dependency(0, 1, 3.0));
  inst.network = Network(3);
  inst.network.set_speed(0, 1.0);
  inst.network.set_speed(1, 2.0);
  inst.network.set_speed(2, 4.0);
  inst.network.set_strength(0, 1, Network::kInfiniteStrength);
  inst.network.set_strength(0, 2, 2.5);
  inst.network.set_strength(1, 2, Network::kInfiniteStrength);

  const Json encoded = instance_to_json(inst);
  const ProblemInstance decoded = instance_from_json(encoded);
  EXPECT_TRUE(std::isinf(decoded.network.strength(0, 1)));
  EXPECT_DOUBLE_EQ(decoded.network.strength(0, 2), 2.5);
  expect_same_instance(inst, decoded);
  EXPECT_EQ(encoded.dump(), instance_to_json(decoded).dump());
}

TEST(ServeCodec, ZeroCostTasksRoundTrip) {
  // TaskGraph and the text format accept zero task costs (random chains
  // draw them from [0, 1]), so the wire codec must too.
  ProblemInstance inst;
  inst.graph.add_task("a", 0.0);
  inst.graph.add_task("b", 1.5);
  ASSERT_TRUE(inst.graph.add_dependency(0, 1, 0.0));
  inst.network = Network(2);
  inst.network.set_speed(0, 1.0);
  inst.network.set_speed(1, 2.0);
  inst.network.set_strength(0, 1, 1.0);

  const Json encoded = instance_to_json(inst);
  const ProblemInstance decoded = instance_from_json(encoded);
  EXPECT_EQ(decoded.graph.cost(0), 0.0);
  expect_same_instance(inst, decoded);
  EXPECT_EQ(encoded.dump(), instance_to_json(decoded).dump());
}

TEST(ServeCodec, ScheduleRoundTripsExactly) {
  const ProblemInstance inst = fig1_instance();
  const auto scheduler = SchedulerRegistry::instance().make("HEFT", kDefaultSchedulerSeed);
  const Schedule schedule = scheduler->schedule(inst);
  const Json encoded = schedule_to_json(schedule);
  const Schedule decoded = schedule_from_json(encoded);
  EXPECT_DOUBLE_EQ(decoded.makespan(), schedule.makespan());
  EXPECT_TRUE(decoded.validate(inst).ok);
  EXPECT_EQ(encoded.dump(), schedule_to_json(decoded).dump());
}

TEST(ServeCodec, LoadInstanceAutoSniffsBothFormats) {
  const ProblemInstance inst = fig1_instance();
  {
    std::istringstream text(instance_to_string(inst));
    expect_same_instance(load_instance_auto(text), inst);
  }
  {
    std::istringstream json("  \n " + instance_to_json(inst).dump(2));
    expect_same_instance(load_instance_auto(json), inst);
  }
}

TEST(ServeCodec, RejectsWrongHeader) {
  EXPECT_THROW(instance_from_json(Json::parse(R"({"version": 1})")), std::invalid_argument);
  EXPECT_THROW(
      instance_from_json(Json::parse(R"({"format": "saga-schedule", "version": 1})")),
      std::invalid_argument);
  try {
    (void)instance_from_json(
        Json::parse(R"({"format": "saga-instance", "version": 2, "tasks": [],
                        "deps": [], "nodes": [{"speed": 1}], "links": []})"));
    FAIL() << "version 2 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(ServeCodec, UnknownKeySuggestsNearestWithPosition) {
  try {
    (void)instance_from_json(
        Json::parse(R"({"format": "saga-instance", "version": 1, "tasks": [],
                        "deps": [], "nodes": [{"speed": 1}], "links": [], "taks": []})"));
    FAIL() << "unknown key accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("did you mean 'tasks'"), std::string::npos) << what;
    EXPECT_NE(what.find("line"), std::string::npos) << what;
  }
}

TEST(ServeCodec, RejectsStructuralViolations) {
  const auto parse_instance = [](const std::string& body) {
    return instance_from_json(Json::parse(body));
  };
  // Dependency referencing a task that does not exist.
  EXPECT_THROW(parse_instance(R"({"format": "saga-instance", "version": 1,
      "tasks": [{"cost": 1}], "deps": [{"from": 0, "to": 5, "size": 0}],
      "nodes": [{"speed": 1}], "links": []})"),
               std::invalid_argument);
  // Self-loop.
  EXPECT_THROW(parse_instance(R"({"format": "saga-instance", "version": 1,
      "tasks": [{"cost": 1}], "deps": [{"from": 0, "to": 0, "size": 0}],
      "nodes": [{"speed": 1}], "links": []})"),
               std::invalid_argument);
  // Cycle.
  EXPECT_THROW(parse_instance(R"({"format": "saga-instance", "version": 1,
      "tasks": [{"cost": 1}, {"cost": 1}],
      "deps": [{"from": 0, "to": 1, "size": 0}, {"from": 1, "to": 0, "size": 0}],
      "nodes": [{"speed": 1}], "links": []})"),
               std::invalid_argument);
  // Missing link (2 nodes need exactly one).
  EXPECT_THROW(parse_instance(R"({"format": "saga-instance", "version": 1,
      "tasks": [], "deps": [],
      "nodes": [{"speed": 1}, {"speed": 1}], "links": []})"),
               std::invalid_argument);
  // Repeated pair (b,a duplicates a,b).
  EXPECT_THROW(parse_instance(R"({"format": "saga-instance", "version": 1,
      "tasks": [], "deps": [],
      "nodes": [{"speed": 1}, {"speed": 1}, {"speed": 1}],
      "links": [{"a": 0, "b": 1, "strength": 1}, {"a": 1, "b": 0, "strength": 1},
                {"a": 1, "b": 2, "strength": 1}]})"),
               std::invalid_argument);
  // Non-positive strength.
  EXPECT_THROW(parse_instance(R"({"format": "saga-instance", "version": 1,
      "tasks": [], "deps": [],
      "nodes": [{"speed": 1}, {"speed": 1}],
      "links": [{"a": 0, "b": 1, "strength": 0}]})"),
               std::invalid_argument);
  // Negative task cost.
  EXPECT_THROW(parse_instance(R"({"format": "saga-instance", "version": 1,
      "tasks": [{"cost": -1}], "deps": [], "nodes": [{"speed": 1}], "links": []})"),
               std::invalid_argument);
  // Zero node speed.
  EXPECT_THROW(parse_instance(R"({"format": "saga-instance", "version": 1,
      "tasks": [{"cost": 1}], "deps": [], "nodes": [{"speed": 0}], "links": []})"),
               std::invalid_argument);
  // Zero nodes.
  EXPECT_THROW(parse_instance(R"({"format": "saga-instance", "version": 1,
      "tasks": [], "deps": [], "nodes": [], "links": []})"),
               std::invalid_argument);
}

}  // namespace
}  // namespace saga::serve
