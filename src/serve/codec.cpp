#include "serve/codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/nearest.hpp"
#include "graph/serialization.hpp"

namespace saga::serve {

namespace {

using exp::Json;
using exp::JsonArray;
using exp::JsonObject;

/// Strengths can be infinite (zero-cost links); JSON has no inf literal, so
/// they cross the wire as the string "inf" (the same spelling the text
/// format and the result sink use).
Json number_or_inf(double v) {
  if (std::isinf(v)) return Json::string(format_exact(v));
  return Json::number(v);
}

double to_double(const Json& json, const std::string& what) {
  if (json.is_string()) return parse_exact(json.as_string(), what);
  if (!json.is_number()) {
    throw std::invalid_argument(what + " must be a number or \"inf\"" + json.position_suffix());
  }
  return json.as_number();
}

/// Non-negative, finite weight (task cost, dependency size): zero is a
/// valid cost, as in TaskGraph and the text format.
double to_cost(const Json& json, const std::string& what) {
  const double v = to_double(json, what);
  if (!(v >= 0.0) || std::isinf(v)) {
    throw std::invalid_argument(what + " must be non-negative and finite" +
                                json.position_suffix());
  }
  return v;
}

/// Positive, finite node speed.
double to_speed(const Json& json, const std::string& what) {
  const double v = to_double(json, what);
  if (!(v > 0.0) || std::isinf(v)) {
    throw std::invalid_argument(what + " must be positive and finite" + json.position_suffix());
  }
  return v;
}

void check_keys(const Json& object, const std::vector<std::string>& allowed,
                const std::string& context) {
  for (const auto& [key, value] : object.as_object()) {
    (void)value;
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      throw std::invalid_argument("unknown key '" + key + "' in " + context +
                                  did_you_mean(key, allowed) +
                                  "; valid keys: " + join(allowed, ", ") +
                                  object.position_suffix());
    }
  }
}

const Json& require(const Json& object, const char* key, const std::string& context) {
  const Json* value = object.find(key);
  if (value == nullptr) {
    throw std::invalid_argument(context + " needs a '" + key + "' key" +
                                object.position_suffix());
  }
  return *value;
}

void check_header(const Json& json, const char* format, const std::string& context) {
  if (!json.is_object()) {
    throw std::invalid_argument(context + " must be a JSON object" + json.position_suffix());
  }
  const Json& fmt = require(json, "format", context);
  if (fmt.as_string() != format) {
    throw std::invalid_argument(context + " 'format' must be \"" + format + "\" (got " +
                                fmt.dump() + ")" + fmt.position_suffix());
  }
  const Json& version = require(json, "version", context);
  if (version.as_u64(context + " 'version'") != 1) {
    throw std::invalid_argument(context + " version " + version.dump() +
                                " is not supported (this build speaks version 1)" +
                                version.position_suffix());
  }
}

}  // namespace

Json instance_to_json(const ProblemInstance& inst) {
  const auto& g = inst.graph;
  const auto& n = inst.network;

  JsonArray tasks;
  tasks.reserve(g.task_count());
  for (TaskId t = 0; t < g.task_count(); ++t) {
    tasks.push_back(Json::object({{"name", Json::string(g.name(t))},
                                  {"cost", Json::number(g.cost(t))}}));
  }

  JsonArray deps;
  deps.reserve(g.dependency_count());
  for (const auto& [from, to] : g.dependencies()) {
    deps.push_back(Json::object({{"from", Json::number(from)},
                                 {"to", Json::number(to)},
                                 {"size", Json::number(g.dependency_cost(from, to))}}));
  }

  JsonArray nodes;
  nodes.reserve(n.node_count());
  for (NodeId v = 0; v < n.node_count(); ++v) {
    nodes.push_back(Json::object({{"speed", Json::number(n.speed(v))}}));
  }

  JsonArray links;
  links.reserve(n.node_count() * (n.node_count() - 1) / 2);
  for (NodeId a = 0; a < n.node_count(); ++a) {
    for (NodeId b = a + 1; b < n.node_count(); ++b) {
      links.push_back(Json::object({{"a", Json::number(a)},
                                    {"b", Json::number(b)},
                                    {"strength", number_or_inf(n.strength(a, b))}}));
    }
  }

  return Json::object({{"format", Json::string("saga-instance")},
                       {"version", Json::number(1)},
                       {"tasks", Json::array(std::move(tasks))},
                       {"deps", Json::array(std::move(deps))},
                       {"nodes", Json::array(std::move(nodes))},
                       {"links", Json::array(std::move(links))}});
}

ProblemInstance instance_from_json(const Json& json) {
  const std::string context = "instance";
  check_header(json, "saga-instance", context);
  check_keys(json, {"format", "version", "tasks", "deps", "nodes", "links"}, context);

  ProblemInstance inst;

  const JsonArray& tasks = require(json, "tasks", context).as_array();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const std::string what = "task " + std::to_string(i);
    check_keys(tasks[i], {"name", "cost"}, what);
    const Json* name = tasks[i].find("name");
    const double cost = to_cost(require(tasks[i], "cost", what), what + " 'cost'");
    if (name != nullptr) {
      inst.graph.add_task(name->as_string(), cost);
    } else {
      inst.graph.add_task(cost);
    }
  }

  const JsonArray& deps = require(json, "deps", context).as_array();
  for (std::size_t i = 0; i < deps.size(); ++i) {
    const std::string what = "dep " + std::to_string(i);
    check_keys(deps[i], {"from", "to", "size"}, what);
    const std::uint64_t from = require(deps[i], "from", what).as_u64(what + " 'from'");
    const std::uint64_t to = require(deps[i], "to", what).as_u64(what + " 'to'");
    if (from >= tasks.size() || to >= tasks.size()) {
      throw std::invalid_argument(what + " references task " +
                                  std::to_string(std::max(from, to)) + " but there are only " +
                                  std::to_string(tasks.size()) + " tasks" +
                                  deps[i].position_suffix());
    }
    const double size = to_cost(require(deps[i], "size", what), what + " 'size'");
    if (!inst.graph.add_dependency(static_cast<TaskId>(from), static_cast<TaskId>(to), size)) {
      throw std::invalid_argument(what + " (" + std::to_string(from) + " -> " +
                                  std::to_string(to) +
                                  ") is a duplicate, self-loop, or would create a cycle" +
                                  deps[i].position_suffix());
    }
  }

  const JsonArray& nodes = require(json, "nodes", context).as_array();
  if (nodes.empty()) {
    throw std::invalid_argument("instance needs at least one node" + json.position_suffix());
  }
  inst.network = Network(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::string what = "node " + std::to_string(i);
    check_keys(nodes[i], {"speed"}, what);
    inst.network.set_speed(static_cast<NodeId>(i),
                           to_speed(require(nodes[i], "speed", what), what + " 'speed'"));
  }

  const JsonArray& links = require(json, "links", context).as_array();
  const std::size_t expected = nodes.size() * (nodes.size() - 1) / 2;
  if (links.size() != expected) {
    throw std::invalid_argument("expected " + std::to_string(expected) +
                                " links (one per unordered node pair), got " +
                                std::to_string(links.size()) + json.position_suffix());
  }
  std::vector<char> seen(expected, 0);
  for (std::size_t i = 0; i < links.size(); ++i) {
    const std::string what = "link " + std::to_string(i);
    check_keys(links[i], {"a", "b", "strength"}, what);
    const std::uint64_t a = require(links[i], "a", what).as_u64(what + " 'a'");
    const std::uint64_t b = require(links[i], "b", what).as_u64(what + " 'b'");
    if (a >= nodes.size() || b >= nodes.size() || a == b) {
      throw std::invalid_argument(what + " (" + std::to_string(a) + ", " + std::to_string(b) +
                                  ") is not a pair of distinct nodes < " +
                                  std::to_string(nodes.size()) + links[i].position_suffix());
    }
    const std::uint64_t lo = std::min(a, b), hi = std::max(a, b);
    // Same packed upper-triangle indexing as Network.
    const std::size_t slot = lo * (2 * nodes.size() - lo - 1) / 2 + (hi - lo - 1);
    if (seen[slot] != 0) {
      throw std::invalid_argument(what + " repeats pair (" + std::to_string(lo) + ", " +
                                  std::to_string(hi) + ")" + links[i].position_suffix());
    }
    seen[slot] = 1;
    const double strength = to_double(require(links[i], "strength", what), what + " 'strength'");
    if (!(strength > 0.0)) {
      throw std::invalid_argument(what + " 'strength' must be positive" +
                                  links[i].position_suffix());
    }
    inst.network.set_strength(static_cast<NodeId>(a), static_cast<NodeId>(b), strength);
  }

  return inst;
}

Json schedule_to_json(const Schedule& schedule) {
  JsonArray assignments;
  assignments.reserve(schedule.size());
  for (const Assignment& a : schedule.assignments()) {
    assignments.push_back(Json::object({{"task", Json::number(a.task)},
                                        {"node", Json::number(a.node)},
                                        {"start", Json::number(a.start)},
                                        {"finish", Json::number(a.finish)}}));
  }
  return Json::object({{"format", Json::string("saga-schedule")},
                       {"version", Json::number(1)},
                       {"makespan", Json::number(schedule.makespan())},
                       {"assignments", Json::array(std::move(assignments))}});
}

Schedule schedule_from_json(const Json& json) {
  const std::string context = "schedule";
  check_header(json, "saga-schedule", context);
  check_keys(json, {"format", "version", "makespan", "assignments"}, context);

  Schedule schedule;
  const JsonArray& assignments = require(json, "assignments", context).as_array();
  schedule.reserve(assignments.size());
  for (std::size_t i = 0; i < assignments.size(); ++i) {
    const std::string what = "assignment " + std::to_string(i);
    check_keys(assignments[i], {"task", "node", "start", "finish"}, what);
    Assignment a;
    a.task = static_cast<TaskId>(require(assignments[i], "task", what).as_u64(what + " 'task'"));
    a.node = static_cast<NodeId>(require(assignments[i], "node", what).as_u64(what + " 'node'"));
    a.start = to_double(require(assignments[i], "start", what), what + " 'start'");
    a.finish = to_double(require(assignments[i], "finish", what), what + " 'finish'");
    schedule.add(a);
  }
  return schedule;
}

ProblemInstance load_instance_auto(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return instance_from_any_string(buffer.str());
}

ProblemInstance instance_from_any_string(const std::string& text) {
  const auto first = text.find_first_not_of(" \t\r\n");
  if (first != std::string::npos && text[first] == '{') {
    return instance_from_json(Json::parse(text));
  }
  return instance_from_string(text);
}

}  // namespace saga::serve
