#include "exp/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/atlas.hpp"
#include "analysis/csv.hpp"
#include "analysis/ratio_matrix.hpp"
#include "common/nearest.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "datasets/registry.hpp"
#include "exp/cells.hpp"
#include "exp/resultstore.hpp"
#include "graph/serialization.hpp"
#include "sched/arena.hpp"
#include "sched/registry.hpp"
#include "sched/schedule_io.hpp"

namespace saga::exp {

namespace {

std::size_t to_size(const Json& json, const std::string& context) {
  return static_cast<std::size_t>(json.as_u64(context));
}

/// Rejects keys outside `allowed`, suggesting the nearest valid one.
void check_keys(const Json& object, const std::vector<std::string>& allowed,
                const std::string& context) {
  for (const auto& [key, value] : object.as_object()) {
    (void)value;
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      throw std::invalid_argument("unknown key '" + key + "' in " + context +
                                  did_you_mean(key, allowed) +
                                  "; valid keys: " + join(allowed, ", "));
    }
  }
}

/// Constructs the selection's streaming source, diagnosing unknown dataset
/// names and bad parameters (with nearest-name suggestions) on the way.
datasets::InstanceSourcePtr make_source(const std::string& spec_string, std::uint64_t seed) {
  return datasets::DatasetRegistry::instance().make(spec_string, seed);
}

ProblemInstance load_instance_ref(const InstanceRef& ref, std::uint64_t seed) {
  if (!ref.file.empty()) {
    if (ref.file == "-") return load_instance(std::cin);
    std::ifstream in(ref.file);
    if (!in) throw std::runtime_error("cannot open instance file " + ref.file);
    return load_instance(in);
  }
  return make_source(ref.dataset, seed)->generate(ref.index);
}

}  // namespace

std::string_view to_string(Mode mode) {
  switch (mode) {
    case Mode::kBenchmark: return "benchmark";
    case Mode::kPisaPairwise: return "pisa-pairwise";
    case Mode::kSchedule: return "schedule";
    case Mode::kSimulate: return "simulate";
  }
  return "unknown";
}

Mode mode_from_string(std::string_view text) {
  if (text == "benchmark") return Mode::kBenchmark;
  if (text == "pisa-pairwise" || text == "pisa") return Mode::kPisaPairwise;
  if (text == "schedule") return Mode::kSchedule;
  if (text == "simulate") return Mode::kSimulate;
  static const std::vector<std::string> valid = {"benchmark", "pisa-pairwise", "schedule",
                                                 "simulate"};
  throw std::invalid_argument("unknown experiment mode '" + std::string(text) + "'" +
                              did_you_mean(text, valid) +
                              "; valid modes: " + join(valid, ", "));
}

pisa::PisaOptions PisaSettings::to_options() const {
  pisa::PisaOptions options;
  options.restarts = restarts;
  options.params.max_iterations = max_iterations;
  options.params.t_max = t_max;
  options.params.t_min = t_min;
  options.params.alpha = alpha;
  if (acceptance == "metropolis") {
    options.params.acceptance = pisa::AnnealingParams::AcceptanceRule::kMetropolis;
  } else if (acceptance != "paper") {
    throw std::invalid_argument("pisa acceptance must be 'paper' or 'metropolis', got '" +
                                acceptance + "'");
  }
  return options;
}

ExperimentSpec ExperimentSpec::from_json(const Json& json) {
  ExperimentSpec spec;
  check_keys(json,
             {"name", "mode", "schedulers", "datasets", "instance", "pisa", "scenario",
              "seed", "parallel", "threads", "csv", "json", "atlas"},
             "experiment spec");
  if (const Json* v = json.find("name")) spec.name = v->as_string();
  if (const Json* v = json.find("mode")) spec.mode = mode_from_string(v->as_string());
  if (const Json* v = json.find("schedulers")) {
    if (v->is_string()) {
      spec.schedulers.push_back(v->as_string());
    } else {
      for (const auto& item : v->as_array()) spec.schedulers.push_back(item.as_string());
    }
  }
  if (const Json* v = json.find("datasets")) {
    for (const auto& item : v->as_array()) {
      DatasetSelection selection;
      if (item.is_string()) {
        selection.name = item.as_string();
      } else {
        check_keys(item, {"name", "count"}, "dataset selection");
        const Json* name = item.find("name");
        if (name == nullptr) {
          throw std::invalid_argument("dataset selection object needs a 'name'");
        }
        selection.name = name->as_string();
        if (const Json* count = item.find("count")) {
          selection.count = to_size(*count, "dataset 'count'");
        }
      }
      spec.datasets.push_back(std::move(selection));
    }
  }
  if (const Json* v = json.find("instance")) {
    check_keys(*v, {"dataset", "index", "file"}, "instance reference");
    if (const Json* d = v->find("dataset")) spec.instance.dataset = d->as_string();
    if (const Json* i = v->find("index")) spec.instance.index = to_size(*i, "instance 'index'");
    if (const Json* f = v->find("file")) spec.instance.file = f->as_string();
  }
  if (const Json* v = json.find("pisa")) {
    check_keys(*v, {"restarts", "max_iterations", "t_max", "t_min", "alpha", "acceptance"},
               "pisa settings");
    if (const Json* x = v->find("restarts")) spec.pisa.restarts = to_size(*x, "'restarts'");
    if (const Json* x = v->find("max_iterations")) {
      spec.pisa.max_iterations = to_size(*x, "'max_iterations'");
    }
    if (const Json* x = v->find("t_max")) spec.pisa.t_max = x->as_number();
    if (const Json* x = v->find("t_min")) spec.pisa.t_min = x->as_number();
    if (const Json* x = v->find("alpha")) spec.pisa.alpha = x->as_number();
    if (const Json* x = v->find("acceptance")) spec.pisa.acceptance = x->as_string();
  }
  if (const Json* v = json.find("scenario")) spec.scenario = sim::Scenario::from_json(*v);
  if (const Json* v = json.find("seed")) {
    spec.seed = static_cast<std::uint64_t>(to_size(*v, "'seed'"));
  }
  if (const Json* v = json.find("parallel")) spec.parallel = v->as_bool();
  if (const Json* v = json.find("threads")) spec.threads = to_size(*v, "'threads'");
  if (const Json* v = json.find("csv")) spec.csv = v->as_string();
  if (const Json* v = json.find("json")) spec.json = v->as_string();
  if (const Json* v = json.find("atlas")) spec.atlas = v->as_string();
  return spec;
}

Json ExperimentSpec::to_json() const {
  Json json = Json::object();
  if (!name.empty()) json.set("name", Json::string(name));
  json.set("mode", Json::string(std::string(to_string(mode))));
  JsonArray scheduler_items;
  for (const auto& entry : schedulers) scheduler_items.push_back(Json::string(entry));
  json.set("schedulers", Json::array(std::move(scheduler_items)));
  if (!datasets.empty()) {
    JsonArray dataset_items;
    for (const auto& selection : datasets) {
      if (selection.count == 0) {
        dataset_items.push_back(Json::string(selection.name));
      } else {
        Json item = Json::object();
        item.set("name", Json::string(selection.name));
        item.set("count", Json::number(static_cast<double>(selection.count)));
        dataset_items.push_back(std::move(item));
      }
    }
    json.set("datasets", Json::array(std::move(dataset_items)));
  }
  if (!instance.empty()) {
    Json ref = Json::object();
    if (!instance.file.empty()) {
      ref.set("file", Json::string(instance.file));
    } else {
      ref.set("dataset", Json::string(instance.dataset));
      ref.set("index", Json::number(static_cast<double>(instance.index)));
    }
    json.set("instance", std::move(ref));
  }
  Json pisa_json = Json::object();
  pisa_json.set("restarts", Json::number(static_cast<double>(pisa.restarts)));
  pisa_json.set("max_iterations", Json::number(static_cast<double>(pisa.max_iterations)));
  pisa_json.set("t_max", Json::number(pisa.t_max));
  pisa_json.set("t_min", Json::number(pisa.t_min));
  pisa_json.set("alpha", Json::number(pisa.alpha));
  pisa_json.set("acceptance", Json::string(pisa.acceptance));
  json.set("pisa", std::move(pisa_json));
  if (!scenario.empty()) json.set("scenario", scenario.to_json());
  json.set("seed", Json::number(static_cast<double>(seed)));
  json.set("parallel", Json::boolean(parallel));
  if (threads > 0) json.set("threads", Json::number(static_cast<double>(threads)));
  if (!csv.empty()) json.set("csv", Json::string(csv));
  if (!this->json.empty()) json.set("json", Json::string(this->json));
  if (!atlas.empty()) json.set("atlas", Json::string(atlas));
  return json;
}

Json load_spec_document(const std::string& path) {
  std::ostringstream buffer;
  if (path == "-") {
    buffer << std::cin.rdbuf();
  } else {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open experiment spec " + path);
    buffer << in.rdbuf();
  }
  return Json::parse(buffer.str());
}

ExperimentSpec ExperimentSpec::load(const std::string& path) {
  return from_json(load_spec_document(path));
}

std::vector<std::string> ExperimentSpec::resolved_schedulers() const {
  std::vector<std::string> out;
  for (const auto& entry : schedulers) {
    if (entry.empty() || entry.front() != '@') {
      out.push_back(entry);
      continue;
    }
    const std::string tag = entry.substr(1);
    // Byte-wise sorted so "@benchmark" reproduces the historical roster
    // order (which seeds the drivers' per-cell RNG streams).
    auto expanded =
        SchedulerRegistry::instance().names(tag, NameOrder::kLexicographic);
    if (expanded.empty()) {
      const auto valid = SchedulerRegistry::instance().tags();
      throw std::invalid_argument("unknown scheduler tag '" + entry + "'" +
                                  did_you_mean(tag, valid) +
                                  "; valid tags: " + join(valid, ", "));
    }
    out.insert(out.end(), std::make_move_iterator(expanded.begin()),
               std::make_move_iterator(expanded.end()));
  }
  return out;
}

void ExperimentSpec::validate() const {
  if (schedulers.empty()) throw std::invalid_argument("experiment spec lists no schedulers");
  const auto roster = resolved_schedulers();
  for (const auto& entry : roster) {
    (void)SchedulerRegistry::instance().make(entry, seed);  // diagnoses name/params
  }
  if (pisa.restarts == 0) throw std::invalid_argument("pisa restarts must be at least 1");
  if (pisa.max_iterations == 0) {
    throw std::invalid_argument("pisa max_iterations must be at least 1");
  }
  if (!(pisa.t_max > 0.0) || !(pisa.t_min > 0.0) || pisa.t_max < pisa.t_min) {
    throw std::invalid_argument("pisa temperatures must satisfy t_max >= t_min > 0");
  }
  if (!(pisa.alpha > 0.0) || pisa.alpha >= 1.0) {
    throw std::invalid_argument("pisa alpha must lie in (0, 1)");
  }
  (void)pisa.to_options();  // diagnoses the acceptance rule
  if (!atlas.empty() && mode != Mode::kPisaPairwise) {
    throw std::invalid_argument(
        "the 'atlas' sink publishes adversarial instances and needs pisa-pairwise mode");
  }
  switch (mode) {
    case Mode::kBenchmark:
      if (datasets.empty()) {
        throw std::invalid_argument("benchmark mode needs at least one dataset");
      }
      for (const auto& selection : datasets) (void)make_source(selection.name, seed);
      break;
    case Mode::kPisaPairwise:
      if (roster.size() < 2) {
        throw std::invalid_argument("pisa-pairwise mode needs at least two schedulers");
      }
      break;
    case Mode::kSchedule:
      if (instance.empty()) {
        throw std::invalid_argument(
            "schedule mode needs an instance (dataset+index or file)");
      }
      if (!instance.dataset.empty() && !instance.file.empty()) {
        throw std::invalid_argument("instance reference has both 'dataset' and 'file'");
      }
      if (!instance.dataset.empty()) (void)make_source(instance.dataset, seed);
      break;
    case Mode::kSimulate: {
      if (scenario.empty()) {
        throw std::invalid_argument("simulate mode needs a 'scenario'");
      }
      scenario.validate();
      // Range-check the fault/jitter node indices against the dataset's
      // actual network, so `--dry-run` catches them before any cell runs.
      const auto source = make_source(scenario.dataset, seed);
      const std::size_t nodes = source->generate(0).network.node_count();
      sim::validate_faults(scenario.faults, nodes);
      sim::validate_jitter(scenario.jitter, nodes);
      break;
    }
  }
}

namespace {

/// Computes one work cell's payload. Seeds derive from the cell's *global*
/// coordinates — exactly the streams the historical monolithic drivers used
/// — so results are bit-identical for any shard decomposition and any
/// thread count.
Json execute_cell(const ExperimentSpec& spec, const CellPlan& plan, const WorkCell& cell,
                  const pisa::PisaOptions& pisa_options,
                  const ProblemInstance& schedule_instance, TimelineArena& arena) {
  Json payload = Json::object();
  switch (spec.mode) {
    case Mode::kBenchmark: {
      // Streaming: the worker pulls its instance straight from the shared
      // source (generate() is pure and thread-safe).
      const ProblemInstance inst = plan.sources[cell.dataset]->generate(cell.instance);
      JsonArray makespans;
      for (std::size_t s = 0; s < plan.roster.size(); ++s) {
        const auto scheduler = SchedulerRegistry::instance().make(
            plan.roster[s], derive_seed(spec.seed, {0xbe5cULL, s, cell.instance}));
        makespans.push_back(encode_double(scheduler->plan_makespan(inst, &arena)));
      }
      payload.set("makespans", Json::array(std::move(makespans)));
      break;
    }
    case Mode::kPisaPairwise: {
      const pisa::CellSeeds seeds = pisa::pairwise_cell_seeds(spec.seed, cell.row, cell.col);
      const auto& registry = SchedulerRegistry::instance();
      const auto baseline = registry.make(plan.roster[cell.row], seeds.baseline);
      const auto target = registry.make(plan.roster[cell.col], seeds.target);
      auto cell_result =
          pisa::run_pisa(*target, *baseline, pisa_options, seeds.anneal, &arena);
      payload.set("ratio", encode_double(cell_result.best_ratio));
      payload.set("instance", Json::string(instance_to_string(cell_result.best_instance)));
      break;
    }
    case Mode::kSchedule: {
      const auto scheduler = SchedulerRegistry::instance().make(
          plan.roster[cell.scheduler], derive_seed(spec.seed, {0x5c7ed01eULL, cell.scheduler}));
      const Schedule schedule = scheduler->schedule(schedule_instance, &arena);
      payload.set("makespan", encode_double(schedule.makespan()));
      payload.set("schedule", Json::string(schedule_to_string(schedule)));
      break;
    }
    case Mode::kSimulate: {
      // The workload (arrival times, per-job weight noise) derives from the
      // master seed alone, so every roster entry faces the identical
      // scenario; only the scheduler's own stream is per-cell.
      const auto scheduler = SchedulerRegistry::instance().make(
          plan.roster[cell.scheduler], derive_seed(spec.seed, {0x51aaULL, cell.scheduler}));
      const sim::SimReport report =
          sim::simulate_scenario(spec.scenario, *scheduler, spec.seed, &arena);
      payload = sim_report_to_json(report);
      break;
    }
  }
  return payload;
}

}  // namespace

std::string annotate_scheduler_seed(const std::string& spec_string,
                                    std::uint64_t derived_seed) {
  Spec spec = parse_spec(spec_string, "scheduler");
  const SchedulerDesc& desc = SchedulerRegistry::instance().resolve(spec.name);
  if (!desc.randomized || spec.find("seed") != nullptr) return spec_string;
  spec.params.emplace_back("seed", std::to_string(derived_seed));
  return spec.to_string();
}

Json result_to_json(const ExperimentSpec& spec, const ExperimentResult& result) {
  Json doc = Json::object();
  if (!spec.name.empty()) doc.set("name", Json::string(spec.name));
  doc.set("mode", Json::string(std::string(to_string(spec.mode))));
  doc.set("seed", Json::number(static_cast<double>(spec.seed)));
  const auto roster = spec.resolved_schedulers();
  JsonArray roster_items;
  for (const auto& name : roster) roster_items.push_back(Json::string(name));
  doc.set("schedulers", Json::array(std::move(roster_items)));
  switch (spec.mode) {
    case Mode::kBenchmark: {
      JsonArray benchmarks;
      for (const auto& benchmark : result.benchmarks) {
        Json entry = Json::object();
        entry.set("dataset", Json::string(benchmark.dataset));
        JsonArray per_scheduler;
        for (const auto& sb : benchmark.per_scheduler) {
          Json item = Json::object();
          item.set("scheduler", Json::string(sb.scheduler));
          item.set("summary", summary_to_json(sb.summary));
          JsonArray ratios;
          for (const double ratio : sb.ratios) ratios.push_back(encode_double(ratio));
          item.set("ratios", Json::array(std::move(ratios)));
          per_scheduler.push_back(std::move(item));
        }
        entry.set("per_scheduler", Json::array(std::move(per_scheduler)));
        benchmarks.push_back(std::move(entry));
      }
      doc.set("benchmarks", Json::array(std::move(benchmarks)));
      break;
    }
    case Mode::kPisaPairwise: {
      Json section = Json::object();
      JsonArray rows;
      for (std::size_t row = 0; row < result.pairwise.ratio.size(); ++row) {
        JsonArray cols;
        for (std::size_t col = 0; col < result.pairwise.ratio[row].size(); ++col) {
          cols.push_back(row == col ? Json()  // diagonal: null, not NaN
                                    : encode_double(result.pairwise.ratio[row][col]));
        }
        rows.push_back(Json::array(std::move(cols)));
      }
      section.set("ratio", Json::array(std::move(rows)));
      JsonArray worst;
      for (const double w : result.pairwise.worst_per_target()) {
        worst.push_back(encode_double(w));
      }
      section.set("worst", Json::array(std::move(worst)));
      doc.set("pairwise", std::move(section));
      break;
    }
    case Mode::kSchedule: {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& outcome : result.schedules) best = std::min(best, outcome.makespan);
      JsonArray items;
      for (const auto& outcome : result.schedules) {
        Json item = Json::object();
        item.set("scheduler", Json::string(outcome.scheduler));
        item.set("makespan", encode_double(outcome.makespan));
        item.set("ratio", encode_double(best > 0.0 ? outcome.makespan / best : 1.0));
        items.push_back(std::move(item));
      }
      doc.set("schedules", Json::array(std::move(items)));
      break;
    }
    case Mode::kSimulate: {
      JsonArray items;
      for (const auto& outcome : result.sims) {
        Json item = Json::object();
        item.set("scheduler", Json::string(outcome.scheduler));
        item.set("report", sim_report_to_json(outcome.report));
        items.push_back(std::move(item));
      }
      doc.set("simulate", Json::array(std::move(items)));
      break;
    }
  }
  return doc;
}

void emit_result(const ExperimentSpec& spec, const ExperimentResult& result,
                 std::ostream& out) {
  const auto roster = spec.resolved_schedulers();
  switch (spec.mode) {
    case Mode::kBenchmark: {
      const std::string title =
          spec.name.empty() ? "Benchmarking grid (max makespan ratio per dataset)" : spec.name;
      out << "\n" << analysis::benchmarking_table(result.benchmarks, roster, title).render()
          << "\n";
      if (!spec.csv.empty()) {
        std::ofstream csv_out(spec.csv);
        if (!csv_out) throw std::runtime_error("cannot open csv sink " + spec.csv);
        analysis::write_benchmark_csv(csv_out, result.benchmarks);
        out << "wrote " << spec.csv << "\n";
      }
      break;
    }
    case Mode::kPisaPairwise: {
      const std::string title =
          spec.name.empty() ? "PISA pairwise grid (worst-case ratio of column vs row)"
                            : spec.name;
      out << "\n" << analysis::pairwise_table(result.pairwise, title).render() << "\n";
      if (!spec.csv.empty()) {
        std::ofstream csv_out(spec.csv);
        if (!csv_out) throw std::runtime_error("cannot open csv sink " + spec.csv);
        analysis::write_pairwise_csv(csv_out, result.pairwise);
        out << "wrote " << spec.csv << "\n";
      }
      if (!spec.atlas.empty()) {
        // Every finite cell becomes an atlas entry; randomized schedulers'
        // spec strings are annotated with their derived per-cell seed so
        // `saga atlas-verify` replays them exactly.
        analysis::Atlas atlas;
        for (std::size_t row = 0; row < roster.size(); ++row) {
          for (std::size_t col = 0; col < roster.size(); ++col) {
            if (row == col || !std::isfinite(result.pairwise.ratio[row][col])) continue;
            const pisa::CellSeeds seeds = pisa::pairwise_cell_seeds(spec.seed, row, col);
            analysis::AtlasEntry entry;
            entry.target = annotate_scheduler_seed(roster[col], seeds.target);
            entry.baseline = annotate_scheduler_seed(roster[row], seeds.baseline);
            entry.ratio = result.pairwise.ratio[row][col];
            entry.seed = spec.seed;
            entry.instance = result.pairwise.best_instance[row][col];
            atlas.add(std::move(entry));
          }
        }
        const auto written = atlas.save(spec.atlas);
        out << "wrote " << written.size() << " atlas entries to " << spec.atlas << "\n";
      }
      break;
    }
    case Mode::kSchedule: {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& outcome : result.schedules) best = std::min(best, outcome.makespan);
      Table table(spec.name.empty() ? "Makespans side by side" : spec.name,
                  {"makespan", "ratio"});
      for (const auto& outcome : result.schedules) {
        table.add_row(outcome.scheduler,
                      {format_fixed(outcome.makespan, 4),
                       format_fixed(best > 0.0 ? outcome.makespan / best : 1.0, 3)});
      }
      out << "\n" << table.render() << "\n";
      if (!spec.csv.empty()) {
        std::ofstream csv_out(spec.csv);
        if (!csv_out) throw std::runtime_error("cannot open csv sink " + spec.csv);
        std::vector<std::pair<std::string, double>> makespans;
        for (const auto& outcome : result.schedules) {
          makespans.emplace_back(outcome.scheduler, outcome.makespan);
        }
        analysis::write_schedule_csv(csv_out, makespans);
        out << "wrote " << spec.csv << "\n";
      }
      break;
    }
    case Mode::kSimulate: {
      Table table(spec.name.empty() ? "Dynamic simulation (per-scheduler outcome)" : spec.name,
                  {"jobs", "resp mean", "resp max", "degr mean", "util mean", "reexec",
                   "makespan"});
      for (const auto& outcome : result.sims) {
        const sim::SimReport& r = outcome.report;
        double util_mean = 0.0;
        for (const double u : r.utilization) util_mean += u;
        if (!r.utilization.empty()) util_mean /= static_cast<double>(r.utilization.size());
        table.add_row(outcome.scheduler,
                      {std::to_string(r.completed_jobs) + "/" + std::to_string(r.jobs),
                       format_fixed(r.response.mean, 4), format_fixed(r.response.max, 4),
                       format_fixed(r.degradation.mean, 3), format_fixed(util_mean, 3),
                       std::to_string(r.reexecutions), format_fixed(r.makespan, 4)});
      }
      out << "\n" << table.render() << "\n";
      if (!spec.csv.empty()) {
        std::ofstream csv_out(spec.csv);
        if (!csv_out) throw std::runtime_error("cannot open csv sink " + spec.csv);
        std::vector<std::pair<std::string, sim::SimReport>> rows;
        for (const auto& outcome : result.sims) {
          rows.emplace_back(outcome.scheduler, outcome.report);
        }
        analysis::write_sim_csv(csv_out, rows);
        out << "wrote " << spec.csv << "\n";
      }
      break;
    }
  }
  if (!spec.json.empty()) {
    std::ofstream json_out(spec.json);
    if (!json_out) throw std::runtime_error("cannot open json sink " + spec.json);
    json_out << result_to_json(spec, result).dump(2) << "\n";
    out << "wrote " << spec.json << "\n";
  }
}

ExperimentResult run_experiment(const ExperimentSpec& spec, std::ostream& out) {
  return run_experiment(spec, out, RunOptions{});
}

ExperimentResult run_experiment(const ExperimentSpec& spec, std::ostream& out,
                                const RunOptions& options) {
  spec.validate();
  if (options.shard_index == 0 || options.shard_count == 0 ||
      options.shard_index > options.shard_count) {
    throw std::invalid_argument("shard selection must satisfy 1 <= index <= count");
  }
  if (options.shard_count > 1 && options.out_dir.empty()) {
    throw std::invalid_argument(
        "a sharded run needs an --out result store, or its cells are lost");
  }
  if (options.resume && options.out_dir.empty()) {
    throw std::invalid_argument("--resume needs the --out result store to resume from");
  }

  const CellPlan plan = enumerate_cells(spec);
  const std::string hash = plan_hash_hex(spec, plan);
  const Shard shard{options.shard_index, options.shard_count};

  // Worker selection: an explicit pool wins; otherwise parallel == false
  // runs on one worker and threads > 0 on a local pool of that size.
  // Results are bit-identical either way — every cell derives its own RNG
  // streams from its global coordinates.
  std::optional<ThreadPool> local_pool;
  ThreadPool* pool = options.pool;
  if (pool == nullptr) {
    if (!spec.parallel) {
      local_pool.emplace(1);
    } else if (spec.threads > 0) {
      local_pool.emplace(spec.threads);
    }
    pool = local_pool ? &*local_pool : &global_pool();
  }

  RunStats stats;
  stats.total_cells = plan.cells.size();
  std::optional<ResultStore> store;
  std::vector<Json> payloads(plan.cells.size());  // null = not yet computed
  if (!options.out_dir.empty()) {
    store.emplace(options.out_dir);
    store->initialize(frozen_spec(spec, plan), hash);
    if (options.resume) {
      auto scan = store->scan(plan, hash);
      stats.torn = scan.uncovered_torn();
      stats.reused = scan.records.size();
      for (auto& [index, record] : scan.records) payloads[index] = std::move(record.payload);
    }
  }

  std::vector<std::size_t> work;
  for (const WorkCell& cell : plan.cells) {
    if (shard.owns(cell.index) && payloads[cell.index].is_null()) work.push_back(cell.index);
  }

  // Schedule mode reads its instance exactly once ("-" composes with
  // pipes); the workers share the loaded copy.
  ProblemInstance schedule_instance;
  if (spec.mode == Mode::kSchedule) {
    schedule_instance = load_instance_ref(spec.instance, spec.seed);
  }
  const pisa::PisaOptions pisa_options =
      spec.mode == Mode::kPisaPairwise ? spec.pisa.to_options() : pisa::PisaOptions{};

  const auto start = std::chrono::steady_clock::now();
  pool->parallel_for(work.size(), [&](std::size_t k) {
    // One evaluation arena per worker thread, recycled across its cells.
    thread_local TimelineArena arena;
    const WorkCell& cell = plan.cells[work[k]];
    const auto cell_start = std::chrono::steady_clock::now();
    Json payload = execute_cell(spec, plan, cell, pisa_options, schedule_instance, arena);
    if (store) {
      CellRecord record;
      record.spec_hash = hash;
      record.index = cell.index;
      record.key = cell.key;
      record.seed = spec.seed;
      record.wall_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - cell_start)
                           .count();
      record.payload = payload;
      store->write_cell(record);
    }
    payloads[cell.index] = std::move(payload);  // distinct slots: no race
  });
  stats.executed = work.size();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  if (store) {
    out << "store " << store->dir().string() << ": ran " << stats.executed << " of "
        << stats.total_cells << " cells";
    if (options.shard_count > 1) {
      out << " (shard " << options.shard_index << "/" << options.shard_count << ")";
    }
    if (stats.reused > 0) out << ", " << stats.reused << " reused";
    if (stats.torn > 0) out << ", " << stats.torn << " torn record(s) discarded";
    out << ", " << format_fixed(seconds, 2) << "s\n";
  }

  bool complete = true;
  for (const Json& payload : payloads) {
    if (payload.is_null()) {
      complete = false;
      break;
    }
  }

  ExperimentResult result;
  if (complete) {
    result = assemble_result(spec, plan, payloads);
    result.instance = std::move(schedule_instance);
    stats.complete = true;
    result.stats = stats;
    if (spec.mode == Mode::kBenchmark) {
      for (std::size_t d = 0; d < plan.dataset_counts.size(); ++d) {
        out << "  " << spec.datasets[d].name << ": " << plan.dataset_counts[d]
            << " instances\n";
      }
    }
    emit_result(spec, result, out);
  } else {
    result.stats = stats;
    std::size_t outstanding = 0;
    for (const Json& payload : payloads) outstanding += payload.is_null() ? 1 : 0;
    out << "partial run: " << outstanding
        << " cells outstanding; combine the shards with `saga merge`\n";
  }
  return result;
}

void apply_override(Json& root, std::string_view assignment) {
  const std::size_t eq = assignment.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    throw std::invalid_argument("--set expects key.path=value, got '" +
                                std::string(assignment) + "'");
  }
  const std::string value_text(assignment.substr(eq + 1));
  Json value;
  try {
    value = Json::parse(value_text);
  } catch (const std::exception&) {
    value = Json::string(value_text);  // bare words are strings
  }
  Json* node = &root;
  std::string_view rest = assignment.substr(0, eq);
  while (true) {
    const std::size_t dot = rest.find('.');
    const std::string key(rest.substr(0, dot));
    if (key.empty()) {
      throw std::invalid_argument("--set path has an empty segment: '" +
                                  std::string(assignment) + "'");
    }
    if (dot == std::string_view::npos) {
      node->set(key, std::move(value));
      return;
    }
    Json* child = node->find(key);
    if (child == nullptr || !child->is_object()) {
      node->set(key, Json::object());
      child = node->find(key);
    }
    node = child;
    rest = rest.substr(dot + 1);
  }
}

std::string describe(const ExperimentSpec& spec) {
  std::ostringstream out;
  out << "experiment" << (spec.name.empty() ? "" : " '" + spec.name + "'") << ": mode "
      << to_string(spec.mode) << "\n";
  // One enumeration serves the dataset counts and the cell total, so the
  // dry-run plan is by construction the plan the executor runs and hashes.
  const CellPlan plan = enumerate_cells(spec);
  out << "  schedulers (" << plan.roster.size() << "): " << join(plan.roster, ", ") << "\n";
  if (spec.mode == Mode::kBenchmark) {
    out << "  datasets (" << spec.datasets.size() << "):";
    for (std::size_t d = 0; d < spec.datasets.size(); ++d) {
      out << " " << spec.datasets[d].name << " x" << plan.dataset_counts[d];
    }
    out << "\n";
  }
  if (spec.mode == Mode::kPisaPairwise) {
    out << "  pisa: " << spec.pisa.restarts << " restarts x " << spec.pisa.max_iterations
        << " iterations, T " << spec.pisa.t_max << "->" << spec.pisa.t_min << ", alpha "
        << spec.pisa.alpha << ", " << spec.pisa.acceptance << " acceptance\n";
  }
  if (spec.mode == Mode::kSchedule) {
    out << "  instance: ";
    if (!spec.instance.file.empty()) {
      out << "file " << spec.instance.file;
    } else {
      out << spec.instance.dataset << "[" << spec.instance.index << "]";
    }
    out << "\n";
  }
  if (spec.mode == Mode::kSimulate) {
    out << "  scenario: dataset " << spec.scenario.dataset << ", ";
    if (spec.scenario.arrivals.kind == sim::ArrivalProcess::Kind::kPoisson) {
      out << spec.scenario.arrivals.jobs << " Poisson arrival(s) at rate "
          << spec.scenario.arrivals.rate;
    } else {
      out << spec.scenario.arrivals.times.size() << " trace arrival(s)";
    }
    out << ", " << spec.scenario.faults.size() << " fault event(s), "
        << spec.scenario.jitter.size() << " jitter event(s)";
    if (spec.scenario.noise_cv > 0.0) out << ", noise cv " << spec.scenario.noise_cv;
    out << "\n";
  }
  out << "  cells: " << plan.cells.size() << " (shardable with --shard i/N)\n";
  out << "  seed " << spec.seed << ", "
      << (spec.parallel ? (spec.threads > 0 ? std::to_string(spec.threads) + " threads"
                                            : std::string("global thread pool"))
                        : std::string("serial"))
      << (spec.csv.empty() ? "" : ", csv -> " + spec.csv)
      << (spec.json.empty() ? "" : ", json -> " + spec.json)
      << (spec.atlas.empty() ? "" : ", atlas -> " + spec.atlas) << "\n";
  return out.str();
}

}  // namespace saga::exp
