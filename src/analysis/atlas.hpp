#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "graph/problem_instance.hpp"
#include "sched/scheduler.hpp"

/// \file atlas.hpp
/// The adversarial-instance atlas: a directory-based store for problem
/// instances discovered by PISA, with enough metadata to replay and verify
/// each one. Implements the paper's planned "framework for publishing the
/// problem instances identified by PISA so that other researchers can use
/// them to evaluate their own algorithms".
///
/// On-disk layout: one `<target>_vs_<baseline>.saga` file per entry in the
/// saga-instance format, preceded by structured comment headers:
///
///   # atlas-entry v1
///   # target: HEFT
///   # baseline: FastestNode
///   # ratio: 4.335
///   # seed: 42
///   saga-instance v1
///   ...

namespace saga::analysis {

struct AtlasEntry {
  std::string target;
  std::string baseline;
  double ratio = 0.0;
  /// Seed the schedulers were constructed with at discovery time (only
  /// randomized schedulers, i.e. WBA/GA/SimAnneal, consume it). Recorded
  /// so `verify` replays with the exact same scheduler instances.
  std::uint64_t seed = kDefaultSchedulerSeed;
  ProblemInstance instance;
};

class Atlas {
 public:
  /// Adds an entry (replacing any previous entry for the same pair).
  void add(AtlasEntry entry);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] const std::vector<AtlasEntry>& entries() const noexcept { return entries_; }

  /// Entry for a pair, if present.
  [[nodiscard]] const AtlasEntry* find(const std::string& target,
                                       const std::string& baseline) const;

  /// Writes every entry into `dir` (created if needed). Returns the file
  /// paths written.
  std::vector<std::filesystem::path> save(const std::filesystem::path& dir) const;

  /// Loads every `*.saga` atlas entry in `dir`. Files that fail to parse
  /// raise std::runtime_error mentioning the path.
  [[nodiscard]] static Atlas load(const std::filesystem::path& dir);

  /// Re-runs each entry's scheduler pair (constructed with the entry's
  /// recorded seed) and compares the measured ratio to the recorded one;
  /// returns descriptions of entries whose measured ratio differs by more
  /// than `tol` (relative). Empty result = fully reproducible atlas.
  [[nodiscard]] std::vector<std::string> verify(double tol) const;

 private:
  std::vector<AtlasEntry> entries_;
};

/// Serialises one entry (headers + instance).
[[nodiscard]] std::string atlas_entry_to_string(const AtlasEntry& entry);

/// Parses one entry; throws std::runtime_error on malformed input.
[[nodiscard]] AtlasEntry atlas_entry_from_string(const std::string& text);

}  // namespace saga::analysis
