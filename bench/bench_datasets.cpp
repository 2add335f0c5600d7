/// Dataset-generation microbenchmark (plain chrono, no Google Benchmark, so
/// it always builds). Reports, for every registry dataset (Table II plus
/// the extension families):
///   1. streaming instance-generation throughput (instances/sec through
///      InstanceSource::generate), and
///   2. an eager-vs-streaming peak-RSS note: materializing a large dataset
///      eagerly (every instance held in a std::vector) versus
///      streaming the same instances one at a time.
///
/// Results are written to BENCH_datasets.json (or argv[1]) so future PRs
/// can track the dataset-pipeline trajectory.

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "datasets/registry.hpp"

namespace {

using namespace saga;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Resident-set high-water mark in MiB (ru_maxrss is KiB on Linux).
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct FamilyTiming {
  std::string name;
  double instances_per_sec = 0.0;
  double mean_tasks = 0.0;
};

FamilyTiming time_family(const std::string& spec) {
  const auto source = datasets::DatasetRegistry::instance().make(spec, env_seed());
  FamilyTiming timing;
  timing.name = spec;

  // Calibrate a repeat count for ~100 ms, then measure.
  auto t0 = Clock::now();
  std::size_t reps = 4;
  double total = 0.0;
  std::size_t tasks = 0;
  std::size_t generated = 0;
  for (;;) {
    for (std::size_t i = 0; i < reps; ++i) {
      const auto inst = source->generate(i);
      tasks += inst.graph.task_count();
      ++generated;
    }
    total = seconds_since(t0);
    if (total > 0.1) break;
    reps *= 4;
    tasks = 0;
    generated = 0;
    t0 = Clock::now();
  }
  timing.instances_per_sec = static_cast<double>(generated) / total;
  timing.mean_tasks = static_cast<double>(tasks) / static_cast<double>(generated);
  return timing;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_datasets.json";

  std::vector<FamilyTiming> timings;
  std::vector<std::string> roster;
  for (const auto& desc : datasets::DatasetRegistry::instance().descriptors()) {
    if (desc.has_tag("wrapper")) continue;  // wrappers are timed separately below
    roster.push_back(desc.name);
  }
  roster.emplace_back("perturbed?base=montage&level=0.3");
  roster.emplace_back("noisy?base=blast&cv=0.2");
  for (const auto& name : roster) {
    timings.push_back(time_family(name));
    std::fprintf(stderr, "%-32s %10.0f instances/sec  (mean %.0f tasks)\n",
                 timings.back().name.c_str(), timings.back().instances_per_sec,
                 timings.back().mean_tasks);
  }

  // Peak-RSS comparison: stream N chains instances (discarding each) vs
  // materializing the same N into a vector. Streaming first, so the eager
  // path owns any high-water-mark growth.
  const std::size_t rss_count = scaled_count(20000, 2000);
  const double rss_before = peak_rss_mib();
  {
    const auto source = datasets::DatasetRegistry::instance().make("chains", env_seed());
    double checksum = 0.0;
    for (std::size_t i = 0; i < rss_count; ++i) {
      checksum += static_cast<double>(source->generate(i).graph.task_count());
    }
    std::fprintf(stderr, "streamed %zu chains instances (checksum %.0f)\n", rss_count,
                 checksum);
  }
  const double rss_streaming = peak_rss_mib();
  std::vector<ProblemInstance> eager;
  eager.reserve(rss_count);
  {
    const auto source = datasets::DatasetRegistry::instance().make("chains", env_seed());
    for (std::size_t i = 0; i < rss_count; ++i) eager.push_back(source->generate(i));
  }
  const double rss_eager = peak_rss_mib();
  std::fprintf(stderr,
               "peak RSS: %.1f MiB before, %.1f MiB after streaming %zu instances, "
               "%.1f MiB after materializing them (%zu held)\n",
               rss_before, rss_streaming, rss_count, rss_eager, eager.size());

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"datasets\",\n");
  std::fprintf(out, "  \"families\": [\n");
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const auto& t = timings[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"instances_per_sec\": %.0f, \"mean_tasks\": %.1f}%s\n",
                 t.name.c_str(), t.instances_per_sec, t.mean_tasks,
                 i + 1 < timings.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"peak_rss\": {\n");
  std::fprintf(out, "    \"note\": \"high-water mark after streaming vs eagerly "
                    "materializing the same chains instances\",\n");
  std::fprintf(out, "    \"instances\": %zu,\n", rss_count);
  std::fprintf(out, "    \"before_mib\": %.1f,\n", rss_before);
  std::fprintf(out, "    \"after_streaming_mib\": %.1f,\n", rss_streaming);
  std::fprintf(out, "    \"after_eager_mib\": %.1f\n", rss_eager);
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
