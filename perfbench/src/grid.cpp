// bench_grid: the paper's Fig. 2 benchmarking grid. A benchmark-mode
// ExperimentSpec over the 15 @benchmark schedulers and a dataset mix of
// workflow, random-graph and IoT families, run through exp::run_experiment
// into a fresh result store per pass, as `saga run --out` does. Every cell
// is a new instance, so the time goes to dataset generation, a full
// InstanceView sync, one-shot scheduling and store writes.
//
// The traced run replays each cell the way the experiment executor does
// (generate, schedule with the roster's derived seeds, write the record)
// with a span around each call, and compares every replayed record with the
// untraced pass's store.

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>

#include "common.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "exp/cells.hpp"
#include "exp/experiment.hpp"
#include "exp/resultstore.hpp"
#include "graph/instance_view.hpp"
#include "metrics.hpp"
#include "sched/arena.hpp"
#include "sched/ranks.hpp"
#include "sched/registry.hpp"
#include "sched/timeline.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using saga::exp::Json;

/// The family a dataset selection draws from ("montage?n=70" -> "montage").
std::string family_of(const std::string& dataset) { return dataset.substr(0, dataset.find('?')); }

struct GridNames {
  std::uint32_t cell = 0;
  std::uint32_t write = 0;
  std::uint32_t sample = 0;
  std::uint32_t sync = 0;
  std::uint32_t ranks = 0;
  std::uint32_t eft_row = 0;
  std::vector<std::uint32_t> generate;  // per dataset selection
  std::vector<std::uint32_t> schedule;  // per roster index
};

GridNames intern_names(Tracer& tracer, const saga::exp::ExperimentSpec& spec,
                       const saga::exp::CellPlan& plan) {
  GridNames n;
  n.cell = tracer.intern("exp.cell");
  n.write = tracer.intern("exp.store.write_cell");
  n.sample = tracer.intern("layer.sample");
  n.sync = tracer.intern("graph.view.sync");
  n.ranks = tracer.intern("sched.ranks.upward_ranks");
  n.eft_row = tracer.intern("sched.timeline.eft_row");
  for (const auto& d : spec.datasets) {
    n.generate.push_back(tracer.intern("datasets.generate." + family_of(d.name)));
  }
  for (const auto& s : plan.roster) n.schedule.push_back(tracer.intern("schedulers.schedule." + s));
  return n;
}

/// Replays every cell into `store_dir` and returns each cell's payload.
std::vector<Json> replay(const saga::exp::ExperimentSpec& spec, const saga::exp::CellPlan& plan,
                         const std::string& store_dir, saga::ThreadPool& pool, Tracer& tracer,
                         const GridNames& names, std::uint64_t op_base) {
  const std::string hash = saga::exp::plan_hash_hex(spec, plan);
  saga::exp::ResultStore store(store_dir);
  store.initialize(saga::exp::frozen_spec(spec, plan), hash);
  const auto& registry = saga::SchedulerRegistry::instance();
  std::vector<Json> payloads(plan.cells.size());
  pool.parallel_for(plan.cells.size(), [&](std::size_t k) {
    thread_local saga::TimelineArena arena;
    const saga::exp::WorkCell& cell = plan.cells[k];
    const std::uint64_t op = op_base + k;
    ScopedSpan cell_span(&tracer, names.cell, 0, op);
    const auto cell_start = Clock::now();
    saga::ProblemInstance inst;
    {
      ScopedSpan span(&tracer, names.generate[cell.dataset], cell_span.id(), op);
      inst = plan.sources[cell.dataset]->generate(cell.instance);
    }
    saga::exp::JsonArray makespans;
    for (std::size_t s = 0; s < plan.roster.size(); ++s) {
      const auto scheduler = registry.make(
          plan.roster[s], saga::derive_seed(spec.seed, {0xbe5cULL, s, cell.instance}));
      double makespan = 0.0;
      {
        ScopedSpan span(&tracer, names.schedule[s], cell_span.id(), op);
        makespan = scheduler->schedule(inst, &arena).makespan();
      }
      makespans.push_back(saga::exp::encode_double(makespan));
    }
    Json payload = Json::object();
    payload.set("makespans", Json::array(std::move(makespans)));
    saga::exp::CellRecord record;
    record.spec_hash = hash;
    record.index = cell.index;
    record.key = cell.key;
    record.seed = spec.seed;
    record.wall_ms = seconds_between(cell_start, Clock::now()) * 1e3;
    record.payload = payload;
    {
      ScopedSpan span(&tracer, names.write, cell_span.id(), op);
      store.write_cell(record);
    }
    payloads[cell.index] = std::move(payload);
  });
  return payloads;
}

/// Layer-function spans on a seeded sample of the grid's own instances: a
/// full InstanceView sync into a fresh view, upward ranks and one eft_row
/// sweep.
void sample_layers(const saga::exp::CellPlan& plan, std::uint64_t seed, Tracer& tracer,
                   const GridNames& names) {
  constexpr std::size_t kSamples = 16;
  constexpr std::uint64_t kReps = 4;
  saga::Rng pick(saga::derive_seed(seed, {0x5a3b1eULL}));
  saga::TimelineArena arena;
  std::vector<double> ranks;
  for (std::size_t s = 0; s < kSamples; ++s) {
    const auto k = static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<std::int64_t>(plan.cells.size()) - 1));
    const saga::exp::WorkCell& cell = plan.cells[k];
    ScopedSpan sample(&tracer, names.sample, 0, k);
    const saga::ProblemInstance inst = plan.sources[cell.dataset]->generate(cell.instance);

    std::int64_t sync_ns = 0;
    for (std::uint64_t r = 0; r < kReps; ++r) {
      saga::InstanceView fresh;
      const std::int64_t t0 = now_ns();
      fresh.sync(inst);
      sync_ns += now_ns() - t0;
    }
    tracer.aggregate({sample.id(), k, names.sync, kReps, sync_ns});

    const saga::InstanceView view(inst);
    const std::int64_t t0 = now_ns();
    for (std::uint64_t r = 0; r < kReps; ++r) saga::upward_ranks(view, ranks);
    tracer.aggregate({sample.id(), k, names.ranks, kReps, now_ns() - t0});

    std::int64_t eft_ns = 0;
    std::uint64_t eft_calls = 0;
    saga::TimelineBuilder builder(view, &arena);
    for (const saga::TaskId t : view.topological_order()) {
      const std::int64_t e0 = now_ns();
      const auto row = builder.eft_row(t, true);
      eft_ns += now_ns() - e0;
      ++eft_calls;
      const auto best = static_cast<saga::NodeId>(
          std::min_element(row.finish.begin(), row.finish.end()) - row.finish.begin());
      const double best_start = row.start[best];
      builder.place(t, best, best_start);
    }
    tracer.aggregate({sample.id(), k, names.eft_row, eft_calls, eft_ns});
  }
}

void report_layers(Report& report, Tracer& tracer) {
  const auto spans = tracer.spans();
  const auto aggregates = tracer.aggregates();
  const auto& names = tracer.names();
  const auto self = self_times(spans, aggregates);
  const std::uint32_t cell_name = tracer.intern("exp.cell");

  // Spans by name: total ns and count; cell self time for the overhead.
  std::map<std::string, std::pair<double, double>> per_name;
  double cell_ns = 0.0;
  double cell_self_ns = 0.0;
  for (const Span& s : spans) {
    auto& [total, calls] = per_name[names[s.name]];
    total += static_cast<double>(s.duration_ns());
    calls += 1.0;
    if (s.name == cell_name) {
      cell_ns += static_cast<double>(s.duration_ns());
      cell_self_ns += static_cast<double>(self.at(s.id));
    }
  }
  for (const Aggregate& a : aggregates) {
    auto& [total, calls] = per_name[names[a.name]];
    total += static_cast<double>(a.total_ns);
    calls += static_cast<double>(a.count);
  }
  const auto per_call = [&](const std::string& name) {
    const auto& [total, calls] = per_name.at(name);
    return total / calls;
  };

  double generate_ns = 0.0;
  double generate_calls = 0.0;
  double schedule_ns = 0.0;
  double schedule_calls = 0.0;
  for (const auto& [name, tc] : per_name) {
    if (name.rfind("datasets.generate.", 0) == 0) {
      generate_ns += tc.first;
      generate_calls += tc.second;
      report.metric("datasets.generate_us." + name.substr(18), tc.first / tc.second / 1e3, "us");
    } else if (name.rfind("schedulers.schedule.", 0) == 0) {
      schedule_ns += tc.first;
      schedule_calls += tc.second;
      report.metric("schedulers.schedule_ns." + name.substr(20), tc.first / tc.second, "ns");
    }
  }
  report.metric("datasets.generate_us", generate_ns / generate_calls / 1e3, "us");
  report.metric("schedulers.schedule_ns", schedule_ns / schedule_calls, "ns");
  report.metric("exp.store.write_us", per_call("exp.store.write_cell") / 1e3, "us");
  report.metric("exp.overhead_frac", cell_self_ns / cell_ns, "frac");
  report.metric("graph.view.sync_ns", per_call("graph.view.sync"), "ns");
  report.metric("sched.ranks.upward_ns", per_call("sched.ranks.upward_ranks"), "ns");
  report.metric("sched.timeline.eft_row_ns", per_call("sched.timeline.eft_row"), "ns");
}

}  // namespace

Report run_bench_grid(const Context& ctx) {
  Report report;
  // One input set: a spec at one seed and its cell plan.
  struct Input {
    saga::exp::ExperimentSpec spec;
    saga::exp::CellPlan plan;
  };
  const auto load_inputs = [&](const std::vector<std::uint64_t>& seeds) {
    std::vector<Input> inputs;
    for (const std::uint64_t seed : seeds) {
      saga::exp::ExperimentSpec spec = load_experiment_spec("bench_grid.json", seed);
      saga::exp::CellPlan plan = saga::exp::enumerate_cells(spec);
      inputs.push_back({std::move(spec), std::move(plan)});
    }
    return inputs;
  };

  std::unique_ptr<saga::ThreadPool> pool;  // built by the set-up below
  std::vector<std::string> reference;      // result digest per input set
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // One untraced run of an input set into a fresh store; returns its wall
  // time. Its result document must reproduce `expected` (set by the
  // input's first run).
  const auto run_input = [&](const Input& in, std::string& expected,
                             const std::string& store_dir) {
    fs::remove_all(store_dir);
    std::ostringstream sink;
    saga::exp::RunOptions options;
    options.pool = pool.get();
    options.out_dir = store_dir;
    const auto start = Clock::now();
    const saga::exp::ExperimentResult result = saga::exp::run_experiment(in.spec, sink, options);
    const double wall = seconds_between(start, Clock::now());
    const std::size_t cells = in.plan.cells.size();
    attempted += cells;
    if (!result.stats.complete || result.stats.executed != cells) {
      report.mismatch("run covered " + std::to_string(result.stats.executed) + " of " +
                      std::to_string(cells) + " cells");
      failed += cells - std::min(cells, result.stats.executed);
    }
    const std::string digest = digest_hex(canonical(saga::exp::result_to_json(in.spec, result)));
    if (expected.empty()) {
      expected = digest;
    } else if (digest != expected) {
      report.mismatch("result digest " + digest + " differs from the input's first run");
      failed += cells;
    }
    return wall;
  };
  const auto pin_first_pass = [&] {
    std::string all;
    for (const auto& d : reference) all += d;
    const std::string digest = digest_hex(all);
    report.detail("digest", Json::string(digest));
    if (ctx.at_default_seed() && digest != ctx.string("pinned_digest")) {
      report.mismatch("result digest " + digest + " != pinned " + ctx.string("pinned_digest"));
      failed += 1;
    }
  };

  // Set-up: spec load, validation and plan for every input set and pool
  // start. The first set-up serves the run; the untraced run times one
  // more after every operation and discards it (see setup_s).
  const std::string store_dir = ctx.scratch_dir + "/store";
  std::vector<double> setups;
  const auto set_up = [&](std::vector<Input>& in, std::unique_ptr<saga::ThreadPool>& p) {
    const auto start = Clock::now();
    in = load_inputs(input_seeds(ctx.args.seed));
    p = std::make_unique<saga::ThreadPool>(kExperimentThreads);
    setups.push_back(seconds_between(start, Clock::now()));
  };
  std::vector<Input> inputs;
  set_up(inputs, pool);
  reference.resize(inputs.size());
  // Untimed warm-up (the workers' arenas allocated, caches filled): the
  // first input set's first run, which every later run of it must repeat.
  (void)run_input(inputs.front(), reference.front(), store_dir);
  std::vector<std::string> families;
  for (const auto& d : inputs.front().spec.datasets) families.push_back(family_of(d.name));
  if (families != grid_families()) {
    throw std::runtime_error("bench_grid datasets must be the catalogue's families, in order");
  }
  std::size_t schedules = 0;
  for (const Input& in : inputs) schedules += in.plan.cells.size() * in.plan.roster.size();

  const std::size_t min_passes =
      (samples_for_tail(kExperimentTail) + inputs.size() - 1) / inputs.size();
  if (!ctx.args.trace) {
    std::vector<double> run_ms;
    const std::vector<double> walls = timed_passes(
        ctx.args.seconds, min_passes, [&](std::size_t pass) {
          double wall = 0.0;
          for (std::size_t i = 0; i < inputs.size(); ++i) {
            const double s = run_input(inputs[i], reference[i], store_dir);
            wall += s;
            run_ms.push_back(s * 1e3);
            std::vector<Input> spare_inputs;
            std::unique_ptr<saga::ThreadPool> spare_pool;
            set_up(spare_inputs, spare_pool);
          }
          if (pass == 0) pin_first_pass();
          return wall;
        });
    fs::remove_all(store_dir);
    std::vector<double> rates;
    for (const double s : walls) rates.push_back(static_cast<double>(schedules) / s);
    report.phase("cells", attempted, failed);
    report.metric("setup_s", median(setups), "s");
    report.metric("throughput_per_s", median(rates), "1/s");
    const Quartiles q = quartiles(rates.size() > 1 ? rates : std::vector<double>{rates[0], rates[0]});
    report.detail("pass_throughput_quartiles",
                  Json::array({Json::number(q.q1), Json::number(q.q2), Json::number(q.q3)}));
    report.metric("latency_p50_ms", median(run_ms), "ms");
    if (const auto tail = supported_percentile(run_ms, kExperimentTail)) {
      report.metric("latency_tail_ms", *tail, "ms");
    }
    report.metric("peak_rss_mib", peak_rss_mib_self(), "MiB");
    report.detail("passes", Json::number(static_cast<double>(walls.size())));
    report.detail("schedules_per_pass", Json::number(static_cast<double>(schedules)));
    return report;
  }

  // Traced: each input runs untraced into a store and is then replayed
  // with spans into another; every replayed record must equal the
  // untraced one.
  Tracer& tracer = *ctx.tracer;
  const GridNames names = intern_names(tracer, inputs.front().spec, inputs.front().plan);
  const std::string replay_dir = ctx.scratch_dir + "/replay";
  std::vector<double> overhead;
  std::uint64_t replay_attempted = 0;
  std::uint64_t replay_failed = 0;
  std::uint64_t op_base = 0;
  (void)timed_passes(ctx.args.seconds, 1, [&](std::size_t pass) {
    double untraced_s = 0.0;
    double traced_s = 0.0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const Input& in = inputs[i];
      untraced_s += run_input(in, reference[i], store_dir);
      fs::remove_all(replay_dir);
      const auto t0 = Clock::now();
      const std::vector<Json> payloads =
          replay(in.spec, in.plan, replay_dir, *pool, tracer, names, op_base);
      traced_s += seconds_between(t0, Clock::now());
      const std::size_t cells = in.plan.cells.size();
      op_base += cells;
      const auto scan = saga::exp::ResultStore(store_dir).scan(
          in.plan, saga::exp::plan_hash_hex(in.spec, in.plan));
      replay_attempted += cells;
      std::size_t differ = 0;
      for (std::size_t c = 0; c < cells; ++c) {
        const auto it = scan.records.find(c);
        if (it == scan.records.end() || it->second.payload.dump() != payloads[c].dump()) ++differ;
      }
      if (differ > 0) report.mismatch(std::to_string(differ) + " replayed cells differ");
      replay_failed += differ;
    }
    if (pass == 0) pin_first_pass();
    overhead.push_back(traced_s / untraced_s - 1.0);
    return untraced_s + traced_s;
  });
  fs::remove_all(store_dir);
  fs::remove_all(replay_dir);
  report.phase("untraced_cells", attempted, failed);
  report.phase("traced_replay", replay_attempted, replay_failed);
  sample_layers(inputs.front().plan, ctx.args.seed, tracer, names);
  report_layers(report, tracer);
  report.metric("trace_overhead_frac", median(overhead), "frac");
  report.detail("traced_passes", Json::number(static_cast<double>(overhead.size())));
  return report;
}

}  // namespace perfbench
