#include "analysis/atlas.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "core/annealer.hpp"
#include "graph/serialization.hpp"
#include "sched/registry.hpp"

namespace saga::analysis {

void Atlas::add(AtlasEntry entry) {
  const auto it = std::find_if(entries_.begin(), entries_.end(), [&](const AtlasEntry& e) {
    return e.target == entry.target && e.baseline == entry.baseline;
  });
  if (it != entries_.end()) {
    *it = std::move(entry);
  } else {
    entries_.push_back(std::move(entry));
  }
}

const AtlasEntry* Atlas::find(const std::string& target, const std::string& baseline) const {
  for (const auto& e : entries_) {
    if (e.target == target && e.baseline == baseline) return &e;
  }
  return nullptr;
}

std::string atlas_entry_to_string(const AtlasEntry& entry) {
  std::ostringstream out;
  out << "# atlas-entry v1\n";
  out << "# target: " << entry.target << "\n";
  out << "# baseline: " << entry.baseline << "\n";
  out << "# ratio: ";
  out.precision(17);
  out << entry.ratio << "\n";
  out << "# seed: " << entry.seed << "\n";
  save_instance(out, entry.instance);
  return out.str();
}

AtlasEntry atlas_entry_from_string(const std::string& text) {
  AtlasEntry entry;
  std::istringstream in(text);
  std::string line;
  bool saw_magic = false;
  // Headers are comments, so the instance parser would skip them; read
  // them here first, then hand the remainder to load_instance.
  std::ostringstream rest;
  while (std::getline(in, line)) {
    if (line.rfind("# atlas-entry", 0) == 0) {
      saw_magic = true;
    } else if (line.rfind("# target: ", 0) == 0) {
      entry.target = line.substr(10);
    } else if (line.rfind("# baseline: ", 0) == 0) {
      entry.baseline = line.substr(12);
    } else if (line.rfind("# ratio: ", 0) == 0) {
      entry.ratio = std::stod(line.substr(9));
    } else if (line.rfind("# seed: ", 0) == 0) {
      entry.seed = std::stoull(line.substr(8));
    } else {
      rest << line << "\n";
    }
  }
  if (!saw_magic) throw std::runtime_error("not an atlas-entry v1 file");
  if (entry.target.empty() || entry.baseline.empty()) {
    throw std::runtime_error("atlas entry missing target/baseline header");
  }
  entry.instance = instance_from_string(rest.str());
  return entry;
}

std::vector<std::filesystem::path> Atlas::save(const std::filesystem::path& dir) const {
  std::filesystem::create_directories(dir);
  std::vector<std::filesystem::path> written;
  for (const auto& entry : entries_) {
    const auto path = dir / (entry.target + "_vs_" + entry.baseline + ".saga");
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path.string());
    out << atlas_entry_to_string(entry);
    written.push_back(path);
  }
  return written;
}

Atlas Atlas::load(const std::filesystem::path& dir) {
  Atlas atlas;
  std::vector<std::filesystem::path> files;
  for (const auto& item : std::filesystem::directory_iterator(dir)) {
    if (item.is_regular_file() && item.path().extension() == ".saga") {
      files.push_back(item.path());
    }
  }
  std::sort(files.begin(), files.end());  // deterministic load order
  for (const auto& path : files) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    try {
      atlas.add(atlas_entry_from_string(text.str()));
    } catch (const std::exception& e) {
      throw std::runtime_error(path.string() + ": " + e.what());
    }
  }
  return atlas;
}

std::vector<std::string> Atlas::verify(double tol) const {
  std::vector<std::string> mismatches;
  for (const auto& entry : entries_) {
    const auto target = SchedulerRegistry::instance().make(entry.target, entry.seed);
    const auto baseline = SchedulerRegistry::instance().make(entry.baseline, entry.seed);
    const double measured = pisa::makespan_ratio(*target, *baseline, entry.instance);
    const double reference = std::max(std::abs(entry.ratio), 1e-12);
    if (std::abs(measured - entry.ratio) > tol * reference) {
      std::ostringstream msg;
      msg << entry.target << " vs " << entry.baseline << ": recorded " << entry.ratio
          << ", measured " << measured;
      mismatches.push_back(msg.str());
    }
  }
  return mismatches;
}

}  // namespace saga::analysis
