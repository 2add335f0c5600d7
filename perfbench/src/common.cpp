#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "stats.hpp"

namespace perfbench {

double Context::number(std::string_view key) const {
  const Json* value = config.find(key);
  if (value == nullptr) throw std::invalid_argument("config: missing '" + std::string(key) + "'");
  return value->as_number();
}

std::string Context::string(std::string_view key) const {
  const Json* value = config.find(key);
  if (value == nullptr) throw std::invalid_argument("config: missing '" + std::string(key) + "'");
  return value->as_string();
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::phase(const std::string& name, std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
  phases_.set(name, Json::object({{"attempted", Json::number(static_cast<double>(attempted))},
                                  {"failed", Json::number(static_cast<double>(failed))}}));
}

void Report::mismatch(const std::string& what) {
  std::cerr << "perfbench: check failed: " << what << "\n";
  mismatches_.push_back(what);
}

Json Report::to_json() const {
  JsonArray mismatches;
  for (const auto& m : mismatches_) mismatches.push_back(Json::string(m));
  Json doc = Json::object({{"phases", phases_},
                           {"mismatches", Json::array(std::move(mismatches))},
                           {"details", details_}});
  return doc;
}

namespace {

double vm_hwm_mib(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

void canonical_into(const Json& json, std::string& out) {
  switch (json.type()) {
    case Json::Type::kNull: out += "null"; break;
    case Json::Type::kBool: out += json.as_bool() ? "true" : "false"; break;
    case Json::Type::kNumber: out += exact(json.as_number()); break;
    case Json::Type::kString: out += json.dump(); break;
    case Json::Type::kArray: {
      out += '[';
      for (const Json& item : json.as_array()) {
        canonical_into(item, out);
        out += ',';
      }
      out += ']';
      break;
    }
    case Json::Type::kObject: {
      out += '{';
      for (const auto& [key, value] : json.as_object()) {
        out += Json::string(key).dump();
        out += ':';
        canonical_into(value, out);
        out += ',';
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

double peak_rss_mib_self() { return vm_hwm_mib("/proc/self/status"); }

double peak_rss_mib_of(int pid) { return vm_hwm_mib("/proc/" + std::to_string(pid) + "/status"); }

std::string digest_hex(std::string_view bytes) { return saga::hash_hex(saga::fnv1a64(bytes)); }

std::string exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string canonical(const Json& json) {
  std::string out;
  canonical_into(json, out);
  return out;
}

std::vector<double> timed_passes(double seconds, std::size_t min_passes,
                                 const std::function<double(std::size_t)>& pass) {
  std::vector<double> walls;
  const auto start = Clock::now();
  while (true) {
    const double elapsed = seconds_between(start, Clock::now());
    if (elapsed >= kMaxSeconds) break;
    if (elapsed >= seconds && walls.size() >= min_passes) break;
    walls.push_back(pass(walls.size()));
  }
  return walls;
}

std::vector<std::uint64_t> input_seeds(std::uint64_t seed) {
  std::vector<std::uint64_t> seeds = {seed};
  for (std::size_t k = 1; k < kInputSets; ++k) {
    // Spec seeds travel through JSON numbers: keep them small and exact.
    seeds.push_back(saga::derive_seed(seed, {0x1a95e7ULL, k}) & 0xffffffffULL);
  }
  return seeds;
}

saga::exp::ExperimentSpec load_experiment_spec(const std::string& name, std::uint64_t seed) {
  Json doc = saga::exp::load_spec_document(std::string(PERFBENCH_SOURCE_DIR) + "/specs/" + name);
  saga::exp::apply_override(doc, "seed=" + std::to_string(seed));
  auto spec = saga::exp::ExperimentSpec::from_json(doc);
  spec.validate();
  return spec;
}

}  // namespace perfbench
