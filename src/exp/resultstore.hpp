#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "exp/cells.hpp"
#include "exp/experiment.hpp"
#include "exp/json.hpp"

/// \file resultstore.hpp
/// The structured on-disk result store behind `saga run --out/--resume` and
/// `saga merge`. Layout:
///
///   <dir>/spec.json                  the frozen experiment spec (dataset
///                                    counts pinned) — itself a runnable
///                                    `saga run` input
///   <dir>/cells/s<pid>-<n>.jsonl     one append-only segment per run: one
///                                    self-describing JSONL record per
///                                    completed cell, e.g.
///     {"v": 1, "spec": "<16-hex hash>", "cell": 7, "key": "bench:0:blast[7]",
///      "seed": 42, "wall_ms": 3.25, "payload": {...}}
///
/// Each ResultStore object creates its own segment (exclusively, on its
/// first write) and appends each record with one write() of the whole
/// line; it never appends to a segment it did not create. Scan reads every
/// `*.jsonl` under `cells/` line by line, so a store written by the older
/// one-file-per-cell layout (`c<index>.jsonl`) reads the same way: each of
/// its files is a segment with one line. A line that fails to parse, or a
/// final fragment with no newline, is torn: it is reported, never rewritten
/// (another run may still be appending), and `--resume` re-runs its cell
/// unless a valid record elsewhere covers it. Two records for one cell are
/// fine when their payloads match (the first wins) and throw when they
/// differ. Merging recombines any complete shard decomposition into the
/// exact artifacts the monolithic run emits, refusing loudly on missing
/// cells, torn records, spec-hash mismatches, or conflicting duplicates.

namespace saga::exp {

/// One completed cell, as persisted in a store record.
struct CellRecord {
  std::string spec_hash;  // plan_hash_hex of the owning experiment
  std::size_t index = 0;  // global cell index
  std::string key;        // WorkCell::key (cross-checked on scan)
  std::uint64_t seed = 0; // the spec's master seed
  double wall_ms = 0.0;   // cell wall time (informational; never merged)
  Json payload;           // mode-specific result payload
};

class ResultStore {
 public:
  explicit ResultStore(std::filesystem::path dir);
  ~ResultStore();
  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  [[nodiscard]] const std::filesystem::path& dir() const noexcept { return dir_; }

  /// Creates the store layout and writes `spec.json` (atomically) if absent.
  /// If the directory already holds a spec, its plan hash must equal
  /// `spec_hash` — a mismatch throws rather than mixing experiments.
  void initialize(const ExperimentSpec& frozen, const std::string& spec_hash);

  /// Loads the stored spec; throws when `dir` is not a result store.
  [[nodiscard]] ExperimentSpec load_spec() const;

  struct TornLine {
    std::filesystem::path segment;
    std::optional<std::size_t> cell;  // read from the surviving record prefix, if complete
  };
  struct Scan {
    std::map<std::size_t, CellRecord> records;  // valid records by cell index
    std::vector<TornLine> torn;                 // one entry per torn line

    /// Torn lines that still cost a cell: those whose cell no valid record
    /// covers, and those whose cell cannot be read. A store repaired by one
    /// `--resume` keeps its torn tail on disk but reports 0 here.
    [[nodiscard]] std::size_t uncovered_torn() const;
  };

  /// Reads every cell record, visiting segments in sorted path order. Torn
  /// lines are collected, not thrown; well-formed records from a different
  /// experiment (hash or key mismatch) and duplicates of one cell with
  /// differing payloads throw.
  [[nodiscard]] Scan scan(const CellPlan& plan, const std::string& expected_hash) const;

  /// Appends one record to this object's segment, creating the segment on
  /// the first call. Safe to call concurrently.
  void write_cell(const CellRecord& record) const;

 private:
  std::filesystem::path dir_;
  std::filesystem::path cells_dir_;
  mutable std::mutex segment_mutex_;
  mutable int segment_fd_ = -1;  // guarded by segment_mutex_; -1 until the first write
  mutable std::filesystem::path segment_path_;
};

/// Payload-safe double encoding: finite values are JSON numbers (shortest
/// round-trip form, bit-exact through parse), non-finite values are the
/// strings "inf" / "-inf" / "nan" so records stay strict JSON.
[[nodiscard]] Json encode_double(double value);
[[nodiscard]] double decode_double(const Json& json, const std::string& context);

/// Summary codec shared by the benchmark json sink and simulate payloads:
/// fixed key order (count, min, q1, median, q3, max, mean, stddev),
/// encode_double for the values, bit-exact through a JSON round-trip.
[[nodiscard]] Json summary_to_json(const Summary& summary);
[[nodiscard]] Summary summary_from_json(const Json& json, const std::string& context);

/// SimReport codec for simulate-mode cell payloads; the trace hash is a
/// 16-hex string (hash_hex), everything else is numbers / summaries.
[[nodiscard]] Json sim_report_to_json(const sim::SimReport& report);
[[nodiscard]] sim::SimReport sim_report_from_json(const Json& json, const std::string& context);

/// Rebuilds the full ExperimentResult from a complete payload set (indexed
/// by global cell index; a null Json marks a missing payload, which throws).
/// This is the single assembly path shared by the monolithic run, resume,
/// and merge — the reason they are bit-identical.
[[nodiscard]] ExperimentResult assemble_result(const ExperimentSpec& spec, const CellPlan& plan,
                                               const std::vector<Json>& payloads);

struct MergedRun {
  ExperimentSpec spec;  // the stores' frozen spec
  ExperimentResult result;
};

/// Merges one or more result stores covering the same experiment. Throws
/// std::runtime_error naming the offender on: spec hash mismatch between
/// stores, missing cells, torn records, or duplicate cells with differing
/// payloads (identical duplicates — overlapping shards — are fine).
[[nodiscard]] MergedRun merge_stores(const std::vector<std::filesystem::path>& dirs);

}  // namespace saga::exp
