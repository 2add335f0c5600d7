#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/json.hpp"
#include "trace.hpp"

/// \file common.hpp
/// What every workload shares: the parsed command line, the workload's
/// section of perfbench/config.json, the report a run fills in, the timing
/// loop and the fixed shape of every run.

namespace perfbench {

/// Worker threads of the experiment workloads: half of the 4-core machine
/// the benchmark was tuned on, so that a worker rarely waits for a core.
inline constexpr std::size_t kExperimentThreads = 2;
/// serve_mixed: daemon workers and load-generator connections (together
/// within nproc).
inline constexpr std::size_t kDaemonThreads = 2;
inline constexpr std::size_t kConnections = 2;
/// Input sets per pass of an experiment workload (see input_seeds).
inline constexpr std::size_t kInputSets = 16;
/// The tail percentile of the experiment workloads' latency: the upper
/// quartile, which a process measuring a third of a run reaches (40 samples).
inline constexpr double kExperimentTail = 0.75;
/// A process stops measuring at this many seconds even if it has too few
/// samples (run.py starts three per run, within the 180 s a run may take).
inline constexpr double kMaxSeconds = 50.0;

using saga::exp::Json;
using saga::exp::JsonArray;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string results_dir = ".bench_build/results";
  std::string commit = "unknown";
};

/// One workload run. `config` is the workload's section of the config
/// file; `scratch_dir` is a run-private directory under the results dir.
struct Context {
  const Args& args;
  const Json& config;
  std::uint64_t default_seed = 0;
  std::string scratch_dir;
  Tracer* tracer = nullptr;  // set iff args.trace

  [[nodiscard]] double number(std::string_view key) const;
  [[nodiscard]] std::string string(std::string_view key) const;
  [[nodiscard]] bool at_default_seed() const { return args.seed == default_seed; }
};

/// What a run prints and records.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Counts one phase's operations into the totals and the results file.
  void phase(const std::string& name, std::uint64_t attempted, std::uint64_t failed);
  /// Free-form detail for the results file (sample counts, digests, ...).
  void detail(const std::string& key, Json value) { details_.set(key, std::move(value)); }
  /// Records a failed correctness check (also written to stderr).
  void mismatch(const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return mismatches_.empty() && failed_ == 0; }
  [[nodiscard]] const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  metrics() const {
    return metrics_;
  }
  [[nodiscard]] Json to_json() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  Json phases_ = Json::object();
  Json details_ = Json::object();
  std::vector<std::string> mismatches_;
};

/// Peak resident set of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mib_self();
/// Peak resident set of another process, in MiB; 0 when unreadable.
[[nodiscard]] double peak_rss_mib_of(int pid);

/// FNV-1a 64 over a byte string, as 16 hex digits.
[[nodiscard]] std::string digest_hex(std::string_view bytes);
/// "%.17g" rendering of a double (the exact form digests are taken over).
[[nodiscard]] std::string exact(double value);
/// Canonical rendering of a JSON document with every number in "%.17g",
/// for digests of result documents.
[[nodiscard]] std::string canonical(const Json& json);

/// Pass loop shared by the workloads: runs `pass` until `seconds` have
/// elapsed and at least `min_passes` passes ran (stopping at kMaxSeconds
/// regardless). Each pass returns the wall time it measured, in seconds,
/// so its own bookkeeping stays outside the figure; the list is returned.
[[nodiscard]] std::vector<double> timed_passes(double seconds, std::size_t min_passes,
                                               const std::function<double(std::size_t)>& pass);

/// The seeds of a run's kInputSets input sets: the workload seed itself,
/// then seeds derived from it. A pass runs every input set once, so a pass
/// averages over several inputs and the workload seed picks all of them.
[[nodiscard]] std::vector<std::uint64_t> input_seeds(std::uint64_t seed);

/// perfbench/specs/<name>, loaded the way `saga run --set seed=N` loads a
/// spec, and validated.
[[nodiscard]] saga::exp::ExperimentSpec load_experiment_spec(const std::string& name,
                                                             std::uint64_t seed);

Report run_pisa_chains(const Context& ctx);
Report run_pisa_workflows(const Context& ctx);
Report run_bench_grid(const Context& ctx);
Report run_serve_mixed(const Context& ctx);

}  // namespace perfbench
