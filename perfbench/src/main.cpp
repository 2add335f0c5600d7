// perfbench: saga's benchmark program. Runs one named workload from a seed
// for a fixed number of seconds, checks every output, and prints one JSON
// object as its last line of standard output:
//
//   perfbench --workload pisa_chains --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant and prints the per-layer metrics. A results file with the
// machine fingerprint and every phase's counts goes to --results (and, when
// traced, the spans next to it). The pinned digests, the offered rate and
// the request classes come from perfbench/config.json. Normally started
// through perfbench/run.py, which builds this binary first.

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "metrics.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

constexpr int kSchemaVersion = 1;

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
            << "                 [--results DIR] [--commit SHA]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--results") {
        args.results_dir = value;
      } else if (flag == "--commit") {
        args.commit = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty() || !have_seed) usage("--workload and --seed are required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

Json load_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read config " + path);
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return Json::parse(text);
}

/// The workload's worker threads and connections.
Json workload_shape(const std::string& workload) {
  if (workload == "serve_mixed") {
    return Json::object({{"daemon_threads", Json::number(static_cast<double>(kDaemonThreads))},
                         {"connections", Json::number(static_cast<double>(kConnections))}});
  }
  return Json::object({{"threads", Json::number(static_cast<double>(kExperimentThreads))}});
}

Json fingerprint(const Args& args) {
  return Json::object({
      {"nproc", Json::number(std::thread::hardware_concurrency())},
      {"compiler", Json::string(PERFBENCH_COMPILER)},
      {"flags", Json::string(PERFBENCH_FLAGS)},
      {"build_type", Json::string(PERFBENCH_BUILD_TYPE)},
      {"git_commit", Json::string(args.commit)},
      {"workload_seed", Json::number(static_cast<double>(args.seed))},
      {"workload_shape", workload_shape(args.workload)},
  });
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    const std::string config_path = std::string(PERFBENCH_SOURCE_DIR) + "/config.json";
    const Json config = load_config(config_path);
    const Json* all_workloads = config.find("workloads");
    const Json* default_seed = config.find("default_seed");
    if (all_workloads == nullptr || default_seed == nullptr) {
      throw std::runtime_error(config_path + " needs 'workloads' and 'default_seed'");
    }
    const Json* section = all_workloads->find(args.workload);
    if (section == nullptr) usage("unknown workload " + args.workload);

    const std::string stem = args.results_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + (args.trace ? "-traced" : "-untraced");
    std::filesystem::create_directories(args.results_dir);
    Tracer tracer;
    Context ctx{args, *section, static_cast<std::uint64_t>(default_seed->as_number()),
                stem + ".scratch", args.trace ? &tracer : nullptr};
    std::filesystem::remove_all(ctx.scratch_dir);
    std::filesystem::create_directories(ctx.scratch_dir);

    static const std::map<std::string, Report (*)(const Context&)> workloads = {
        {"pisa_chains", run_pisa_chains},
        {"pisa_workflows", run_pisa_workflows},
        {"bench_grid", run_bench_grid},
        {"serve_mixed", run_serve_mixed},
    };
    const auto it = workloads.find(args.workload);
    if (it == workloads.end()) usage("unknown workload " + args.workload);
    const Report report = it->second(ctx);
    std::filesystem::remove_all(ctx.scratch_dir);

    // Every catalogue metric of the run's kind is printed; a per-layer
    // metric the workload did not exercise reads 0 and is left out of
    // "recorded".
    std::map<std::string, std::pair<double, std::string>> measured;
    for (const auto& [name, value] : report.metrics()) measured[name] = value;
    Json printed = Json::object();
    Json all = Json::object();
    JsonArray recorded;
    const auto& catalogue = args.trace ? per_layer_metrics() : end_to_end_metrics();
    for (const MetricDef& def : catalogue) {
      const auto m = measured.find(def.name);
      if (m == measured.end() && !args.trace) {
        throw std::runtime_error("end-to-end metric " + def.name + " was not measured");
      }
      const double value = m == measured.end() ? 0.0 : m->second.first;
      if (!std::isfinite(value)) throw std::runtime_error("metric " + def.name + " is not finite");
      if (m != measured.end()) recorded.push_back(Json::string(def.name));
      printed.set(def.name, Json::object({{"value", Json::number(value)},
                                          {"unit", Json::string(def.unit)}}));
    }
    for (const auto& [name, value] : measured) {
      all.set(name, Json::object({{"value", Json::number(value.first)},
                                  {"unit", Json::string(value.second)}}));
    }

    Json results = report.to_json();
    results.set("schema_version", Json::number(kSchemaVersion));
    results.set("workload", Json::string(args.workload));
    results.set("traced", Json::boolean(args.trace));
    results.set("seconds", Json::number(args.seconds));
    results.set("fingerprint", fingerprint(args));
    results.set("correct", Json::boolean(report.correct()));
    results.set("attempted", Json::number(static_cast<double>(report.attempted())));
    results.set("failed", Json::number(static_cast<double>(report.failed())));
    results.set("metrics", all);
    results.set("recorded", Json::array(std::move(recorded)));
    std::ofstream(stem + ".json") << results.dump(2) << "\n";
    if (args.trace) tracer.write_jsonl(stem + ".spans.jsonl");

    if (report.attempted() == 0) throw std::runtime_error("no operation was attempted");
    const Json line = Json::object({
        {"correct", Json::boolean(report.correct())},
        {"attempted", Json::number(static_cast<double>(report.attempted()))},
        {"failed", Json::number(static_cast<double>(report.failed()))},
        {"metrics", printed},
    });
    std::cout << line.dump() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
