#include "metrics.hpp"

namespace perfbench {

const std::vector<std::string>& benchmark_roster() {
  static const std::vector<std::string> roster = {
      "BIL", "CPoP", "Duplex", "ETF", "FCP", "FLB", "FastestNode", "GDL",
      "HEFT", "MCT", "MET", "MaxMin", "MinMin", "OLB", "WBA"};
  return roster;
}

const std::vector<std::string>& request_classes() {
  static const std::vector<std::string> classes = {"small", "large", "compare"};
  return classes;
}

const std::vector<std::string>& grid_families() {
  static const std::vector<std::string> families = {"montage", "srasearch", "out_trees",
                                                    "chains",  "erdos",     "etl",
                                                    "predict"};
  return families;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"throughput_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},
      {"peak_rss_mib", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"core.anneal.self_ns_per_step", "ns"},
        {"core.anneal.struct_step_frac", "frac"},
        {"core.anneal.evals_per_step", "count"},
        {"core.anneal.accept_frac", "frac"},
        {"core.pairwise.cell_ms_p50", "ms"},
        {"core.pairwise.cell_ms_max", "ms"},
        {"core.pool.busy_frac", "frac"},
        {"schedulers.plan_frac", "frac"},
        {"schedulers.plan_ns", "ns"},
    };
    for (const auto& s : benchmark_roster()) d.push_back({"schedulers.plan_ns." + s, "ns"});
    d.push_back({"schedulers.schedule_ns", "ns"});
    for (const auto& s : benchmark_roster()) d.push_back({"schedulers.schedule_ns." + s, "ns"});
    d.push_back({"sched.ranks.upward_ns", "ns"});
    d.push_back({"sched.timeline.eft_row_ns", "ns"});
    d.push_back({"graph.view.sync_ns", "ns"});
    d.push_back({"graph.view.patch_weight_ns", "ns"});
    d.push_back({"graph.view.patch_struct_ns", "ns"});
    d.push_back({"datasets.generate_us", "us"});
    for (const auto& f : grid_families()) d.push_back({"datasets.generate_us." + f, "us"});
    d.push_back({"exp.store.write_us", "us"});
    d.push_back({"exp.overhead_frac", "frac"});
    for (const char* layer : {"serve.handle_us.", "serve.framing_us.", "serve.json_parse_us.",
                              "serve.codec.decode_us.", "serve.codec.encode_us.",
                              "serve.sched_us."}) {
      for (const auto& c : request_classes()) d.push_back({layer + c, "us"});
    }
    for (const auto& c : request_classes()) d.push_back({"serve.time_share." + c, "frac"});
    d.push_back({"serve.arena_hit_frac", "frac"});
    d.push_back({"serve.gen_late_ms_p99", "ms"});
    d.push_back({"trace_overhead_frac", "frac"});
    return d;
  }();
  return defs;
}

}  // namespace perfbench
