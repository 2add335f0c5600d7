#include "exp/resultstore.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <utility>

#include "analysis/benchmarking.hpp"
#include "common/hash.hpp"
#include "graph/serialization.hpp"
#include "sched/schedule_io.hpp"

namespace saga::exp {

namespace fs = std::filesystem;

namespace {

constexpr int kRecordVersion = 1;

std::string segment_file_name(long pid, unsigned sequence) {
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "s%ld-%u.jsonl", pid, sequence);
  return buffer;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Writes `content` to `path` via a sibling temp file + atomic rename, so
/// readers never observe a half-written file under the final name. The temp
/// name is unique per process and call: two runs initializing one store
/// cannot tear each other's temp file — last rename wins with a complete
/// file either way.
void write_file_atomic(const fs::path& path, const std::string& content) {
  static std::atomic<unsigned long> sequence{0};
  const fs::path tmp = path.string() + ".tmp." + std::to_string(::getpid()) + "." +
                       std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + tmp.string());
    out << content;
    out.flush();
    if (!out) throw std::runtime_error("short write to " + tmp.string());
  }
  fs::rename(tmp, path);
}

const Json& require_field(const Json& object, const char* key, const std::string& context) {
  const Json* field = object.find(key);
  if (field == nullptr) {
    throw std::runtime_error(context + " is missing the '" + key + "' field");
  }
  return *field;
}

std::size_t to_index(const Json& json, const std::string& context) {
  const double value = json.as_number();
  if (value < 0.0 || value != std::floor(value) || value > 9.0e15) {
    throw std::runtime_error(context + " must be a non-negative integer");
  }
  return static_cast<std::size_t>(value);
}

/// Decodes one parsed record line and cross-checks it against the plan.
CellRecord decode_record(const Json& record, const std::string& context, const CellPlan& plan,
                         const std::string& expected_hash) {
  if (to_index(require_field(record, "v", context), context + " 'v'") !=
      static_cast<std::size_t>(kRecordVersion)) {
    throw std::runtime_error(context + " has an unsupported version");
  }
  CellRecord cell;
  cell.spec_hash = require_field(record, "spec", context).as_string();
  if (cell.spec_hash != expected_hash) {
    throw std::runtime_error(context + " belongs to a different experiment (spec hash " +
                             cell.spec_hash + ", expected " + expected_hash + ")");
  }
  cell.index = to_index(require_field(record, "cell", context), context + " 'cell'");
  if (cell.index >= plan.cells.size()) {
    throw std::runtime_error(context + " names cell " + std::to_string(cell.index) +
                             " but the experiment has only " +
                             std::to_string(plan.cells.size()) + " cells");
  }
  cell.key = require_field(record, "key", context).as_string();
  if (cell.key != plan.cells[cell.index].key) {
    throw std::runtime_error(context + " key '" + cell.key + "' does not match cell " +
                             std::to_string(cell.index) + " ('" +
                             plan.cells[cell.index].key + "')");
  }
  if (const Json* seed = record.find("seed")) {
    cell.seed = static_cast<std::uint64_t>(to_index(*seed, context + " 'seed'"));
  }
  if (const Json* wall = record.find("wall_ms")) cell.wall_ms = wall->as_number();
  cell.payload = require_field(record, "payload", context);
  return cell;
}

/// Writes all of `data` to `fd`, looping on partial writes and EINTR.
void write_all(int fd, std::string_view data, const fs::path& path) {
  while (!data.empty()) {
    const ssize_t written = ::write(fd, data.data(), data.size());
    if (written < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(), "cannot append to " + path.string());
    }
    data.remove_prefix(static_cast<std::size_t>(written));
  }
}

}  // namespace

ResultStore::ResultStore(fs::path dir)
    : dir_(std::move(dir)), cells_dir_(dir_ / "cells") {}

ResultStore::~ResultStore() {
  if (segment_fd_ >= 0) ::close(segment_fd_);
}

void ResultStore::initialize(const ExperimentSpec& frozen, const std::string& spec_hash) {
  fs::create_directories(cells_dir_);
  const fs::path spec_path = dir_ / "spec.json";
  if (fs::exists(spec_path)) {
    const ExperimentSpec existing = load_spec();
    const std::string existing_hash = plan_hash_hex(existing, enumerate_cells(existing));
    if (existing_hash != spec_hash) {
      throw std::runtime_error("result store " + dir_.string() +
                               " already holds a different experiment (spec hash " +
                               existing_hash + ", this run is " + spec_hash +
                               "); use a fresh --out directory");
    }
    return;
  }
  write_file_atomic(spec_path, frozen.to_json().dump(2) + "\n");
}

ExperimentSpec ResultStore::load_spec() const {
  const fs::path spec_path = dir_ / "spec.json";
  if (!fs::exists(spec_path)) {
    throw std::runtime_error(dir_.string() + " is not a result store (no spec.json)");
  }
  try {
    return ExperimentSpec::from_json(Json::parse(read_file(spec_path)));
  } catch (const std::exception& e) {
    throw std::runtime_error("cannot load " + spec_path.string() + ": " + e.what());
  }
}

namespace {

/// The cell index a torn line's prefix names, if the tear came after it.
/// Records start `{"v": 1, "spec": "<hash>", "cell": N,`, so N is
/// complete once the comma after it survived.
std::optional<std::size_t> torn_cell(std::string_view line) {
  constexpr std::string_view kKey = "\"cell\":";
  const std::size_t at = line.find(kKey);
  if (at == std::string_view::npos) return std::nullopt;
  const char* first = line.data() + at + kKey.size();
  const char* last = line.data() + line.size();
  while (first != last && *first == ' ') ++first;
  std::size_t cell = 0;
  const auto [end, ec] = std::from_chars(first, last, cell);
  if (ec != std::errc{} || end == last || *end != ',') return std::nullopt;
  return cell;
}

}  // namespace

std::size_t ResultStore::Scan::uncovered_torn() const {
  return static_cast<std::size_t>(std::count_if(
      torn.begin(), torn.end(),
      [this](const TornLine& t) { return !t.cell.has_value() || records.count(*t.cell) == 0; }));
}

ResultStore::Scan ResultStore::scan(const CellPlan& plan,
                                    const std::string& expected_hash) const {
  Scan result;
  if (!fs::exists(cells_dir_)) return result;
  std::vector<fs::path> segments;
  for (const auto& entry : fs::directory_iterator(cells_dir_)) {
    // Skip .tmp leftovers of the older per-cell layout and editor junk.
    if (entry.is_regular_file() && entry.path().extension() == ".jsonl") {
      segments.push_back(entry.path());
    }
  }
  std::sort(segments.begin(), segments.end());

  for (const fs::path& path : segments) {
    const std::string content = read_file(path);
    std::size_t line_number = 0;
    for (std::size_t begin = 0; begin < content.size();) {
      ++line_number;
      const std::size_t end = content.find('\n', begin);
      // A record is one newline-terminated JSON line, parsed on its own;
      // a final fragment without its newline, or any line that does not
      // parse, was torn mid-write and is reported, not fatal.
      if (end == std::string::npos) {
        const std::string_view fragment(content.data() + begin, content.size() - begin);
        result.torn.push_back({path, torn_cell(fragment)});
        break;
      }
      const std::string_view line(content.data() + begin, end - begin);
      begin = end + 1;
      Json parsed;
      try {
        parsed = Json::parse(line);
      } catch (const std::exception&) {
        result.torn.push_back({path, torn_cell(line)});
        continue;
      }

      const std::string context = "record " + path.string() + ":" + std::to_string(line_number);
      CellRecord cell = decode_record(parsed, context, plan, expected_hash);
      const auto seen = result.records.find(cell.index);
      if (seen == result.records.end()) {
        const std::size_t index = cell.index;
        result.records.emplace(index, std::move(cell));
      } else if (seen->second.payload.dump() != cell.payload.dump()) {
        throw std::runtime_error(context + " repeats cell " + cell.key +
                                 " with a different payload; refusing conflicting records");
      }  // an identical duplicate (two runs resuming one store): keep the first
    }
  }
  return result;
}

void ResultStore::write_cell(const CellRecord& record) const {
  Json line = Json::object();
  line.set("v", Json::number(kRecordVersion));
  line.set("spec", Json::string(record.spec_hash));
  line.set("cell", Json::number(static_cast<double>(record.index)));
  line.set("key", Json::string(record.key));
  line.set("seed", Json::number(static_cast<double>(record.seed)));
  line.set("wall_ms", encode_double(record.wall_ms));
  line.set("payload", record.payload);
  std::string text = line.dump();
  text.push_back('\n');

  const std::lock_guard<std::mutex> lock(segment_mutex_);
  if (segment_fd_ < 0) {
    // A fresh segment per object: appending to an existing one could glue
    // this record onto a torn tail left by a crashed run.
    for (unsigned sequence = 0; segment_fd_ < 0;) {
      segment_path_ = cells_dir_ / segment_file_name(static_cast<long>(::getpid()), sequence);
      segment_fd_ =
          ::open(segment_path_.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_APPEND | O_CLOEXEC, 0644);
      if (segment_fd_ < 0 && errno == EEXIST) {
        ++sequence;
      } else if (segment_fd_ < 0 && errno != EINTR) {
        throw std::system_error(errno, std::generic_category(),
                                "cannot create " + segment_path_.string());
      }
    }
  }
  try {
    write_all(segment_fd_, text, segment_path_);
  } catch (...) {
    // The segment may now end in a torn fragment: never append after it.
    ::close(segment_fd_);
    segment_fd_ = -1;
    throw;
  }
}

Json encode_double(double value) {
  if (std::isfinite(value)) return Json::number(value);
  if (std::isnan(value)) return Json::string("nan");
  return Json::string(value > 0 ? "inf" : "-inf");
}

double decode_double(const Json& json, const std::string& context) {
  if (json.is_number()) return json.as_number();
  if (json.is_string()) {
    const std::string& text = json.as_string();
    if (text == "nan") return std::numeric_limits<double>::quiet_NaN();
    if (text == "inf") return std::numeric_limits<double>::infinity();
    if (text == "-inf") return -std::numeric_limits<double>::infinity();
  }
  throw std::runtime_error(context + " is not a number");
}

Json summary_to_json(const Summary& summary) {
  Json json = Json::object();
  json.set("count", Json::number(static_cast<double>(summary.count)));
  json.set("min", encode_double(summary.min));
  json.set("q1", encode_double(summary.q1));
  json.set("median", encode_double(summary.median));
  json.set("q3", encode_double(summary.q3));
  json.set("max", encode_double(summary.max));
  json.set("mean", encode_double(summary.mean));
  json.set("stddev", encode_double(summary.stddev));
  return json;
}

Summary summary_from_json(const Json& json, const std::string& context) {
  Summary summary;
  summary.count = to_index(require_field(json, "count", context), context + " 'count'");
  summary.min = decode_double(require_field(json, "min", context), context + " 'min'");
  summary.q1 = decode_double(require_field(json, "q1", context), context + " 'q1'");
  summary.median =
      decode_double(require_field(json, "median", context), context + " 'median'");
  summary.q3 = decode_double(require_field(json, "q3", context), context + " 'q3'");
  summary.max = decode_double(require_field(json, "max", context), context + " 'max'");
  summary.mean = decode_double(require_field(json, "mean", context), context + " 'mean'");
  summary.stddev =
      decode_double(require_field(json, "stddev", context), context + " 'stddev'");
  return summary;
}

Json sim_report_to_json(const sim::SimReport& report) {
  Json json = Json::object();
  json.set("jobs", Json::number(static_cast<double>(report.jobs)));
  json.set("completed_jobs", Json::number(static_cast<double>(report.completed_jobs)));
  json.set("tasks_completed", Json::number(static_cast<double>(report.tasks_completed)));
  json.set("reexecutions", Json::number(static_cast<double>(report.reexecutions)));
  json.set("makespan", encode_double(report.makespan));
  json.set("response", summary_to_json(report.response));
  json.set("degradation", summary_to_json(report.degradation));
  JsonArray utilization;
  for (const double u : report.utilization) utilization.push_back(encode_double(u));
  json.set("utilization", Json::array(std::move(utilization)));
  json.set("trace_hash", Json::string(hash_hex(report.trace_hash)));
  json.set("trace_events", Json::number(static_cast<double>(report.trace_events)));
  return json;
}

sim::SimReport sim_report_from_json(const Json& json, const std::string& context) {
  sim::SimReport report;
  report.jobs = to_index(require_field(json, "jobs", context), context + " 'jobs'");
  report.completed_jobs = to_index(require_field(json, "completed_jobs", context),
                                   context + " 'completed_jobs'");
  report.tasks_completed = to_index(require_field(json, "tasks_completed", context),
                                    context + " 'tasks_completed'");
  report.reexecutions =
      to_index(require_field(json, "reexecutions", context), context + " 'reexecutions'");
  report.makespan =
      decode_double(require_field(json, "makespan", context), context + " 'makespan'");
  report.response = summary_from_json(require_field(json, "response", context),
                                      context + " response");
  report.degradation = summary_from_json(require_field(json, "degradation", context),
                                         context + " degradation");
  for (const Json& u : require_field(json, "utilization", context).as_array()) {
    report.utilization.push_back(decode_double(u, context + " utilization"));
  }
  const std::string& hex = require_field(json, "trace_hash", context).as_string();
  if (hex.size() != 16 || hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
    throw std::runtime_error(context + " 'trace_hash' is not a 16-hex-digit string");
  }
  report.trace_hash = std::stoull(hex, nullptr, 16);
  report.trace_events =
      to_index(require_field(json, "trace_events", context), context + " 'trace_events'");
  return report;
}

ExperimentResult assemble_result(const ExperimentSpec& spec, const CellPlan& plan,
                                 const std::vector<Json>& payloads) {
  if (payloads.size() != plan.cells.size()) {
    throw std::runtime_error("assemble_result: payload count does not match the cell plan");
  }
  const auto payload_of = [&](const WorkCell& cell) -> const Json& {
    const Json& payload = payloads[cell.index];
    if (payload.is_null()) {
      throw std::runtime_error("cell " + cell.key + " has no payload");
    }
    return payload;
  };

  ExperimentResult result;
  switch (spec.mode) {
    case Mode::kBenchmark: {
      std::size_t offset = 0;
      for (std::size_t d = 0; d < plan.dataset_counts.size(); ++d) {
        const std::size_t count = plan.dataset_counts[d];
        // makespans[s][i]: scheduler s on instance i — the matrix the
        // monolithic driver assembles in memory.
        std::vector<std::vector<double>> makespans(plan.roster.size(),
                                                   std::vector<double>(count, 0.0));
        for (std::size_t i = 0; i < count; ++i) {
          const WorkCell& cell = plan.cells[offset + i];
          const Json& payload = payload_of(cell);
          const JsonArray& values =
              require_field(payload, "makespans", "cell " + cell.key).as_array();
          if (values.size() != plan.roster.size()) {
            throw std::runtime_error("cell " + cell.key + " records " +
                                     std::to_string(values.size()) + " makespans for a " +
                                     std::to_string(plan.roster.size()) +
                                     "-scheduler roster");
          }
          for (std::size_t s = 0; s < values.size(); ++s) {
            makespans[s][i] = decode_double(values[s], "cell " + cell.key + " makespan");
          }
        }
        result.benchmarks.push_back(
            analysis::assemble_benchmark(spec.datasets[d].name, makespans, plan.roster));
        offset += count;
      }
      break;
    }
    case Mode::kPisaPairwise: {
      const std::size_t n = plan.roster.size();
      result.pairwise.scheduler_names = plan.roster;
      result.pairwise.ratio.assign(
          n, std::vector<double>(n, std::numeric_limits<double>::quiet_NaN()));
      result.pairwise.best_instance.assign(n, std::vector<ProblemInstance>(n));
      for (const WorkCell& cell : plan.cells) {
        const Json& payload = payload_of(cell);
        result.pairwise.ratio[cell.row][cell.col] =
            decode_double(require_field(payload, "ratio", "cell " + cell.key),
                          "cell " + cell.key + " ratio");
        result.pairwise.best_instance[cell.row][cell.col] = instance_from_string(
            require_field(payload, "instance", "cell " + cell.key).as_string());
      }
      break;
    }
    case Mode::kSchedule: {
      for (const WorkCell& cell : plan.cells) {
        const Json& payload = payload_of(cell);
        ScheduleOutcome outcome;
        outcome.scheduler = plan.roster[cell.scheduler];
        outcome.makespan =
            decode_double(require_field(payload, "makespan", "cell " + cell.key),
                          "cell " + cell.key + " makespan");
        outcome.schedule = schedule_from_string(
            require_field(payload, "schedule", "cell " + cell.key).as_string());
        result.schedules.push_back(std::move(outcome));
      }
      break;
    }
    case Mode::kSimulate: {
      for (const WorkCell& cell : plan.cells) {
        SimOutcome outcome;
        outcome.scheduler = plan.roster[cell.scheduler];
        outcome.report = sim_report_from_json(payload_of(cell), "cell " + cell.key);
        result.sims.push_back(std::move(outcome));
      }
      break;
    }
  }
  result.stats.total_cells = plan.cells.size();
  result.stats.complete = true;
  return result;
}

MergedRun merge_stores(const std::vector<fs::path>& dirs) {
  if (dirs.empty()) {
    throw std::invalid_argument("merge needs at least one result-store directory");
  }
  MergedRun merged;
  merged.spec = ResultStore(dirs.front()).load_spec();
  merged.spec.validate();
  const CellPlan plan = enumerate_cells(merged.spec);
  const std::string hash = plan_hash_hex(merged.spec, plan);

  std::vector<Json> payloads(plan.cells.size());
  std::vector<std::string> canonical(plan.cells.size());  // dump() for conflict checks
  std::vector<ResultStore::TornLine> torn;
  for (const auto& dir : dirs) {
    ResultStore store(dir);
    const ExperimentSpec other = store.load_spec();
    const std::string other_hash = plan_hash_hex(other, enumerate_cells(other));
    if (other_hash != hash) {
      throw std::runtime_error("result stores disagree: " + dir.string() +
                               " holds spec hash " + other_hash + " but " +
                               dirs.front().string() + " holds " + hash);
    }
    auto scan = store.scan(plan, hash);
    torn.insert(torn.end(), scan.torn.begin(), scan.torn.end());
    for (auto& [index, record] : scan.records) {
      std::string dump = record.payload.dump();
      if (!payloads[index].is_null()) {
        if (dump != canonical[index]) {
          throw std::runtime_error("cell " + plan.cells[index].key +
                                   " differs between stores (seen again in " + dir.string() +
                                   "); refusing to merge conflicting records");
        }
        continue;  // identical duplicate: overlapping shards are fine
      }
      payloads[index] = std::move(record.payload);
      canonical[index] = std::move(dump);
    }
  }

  std::vector<std::string> missing;
  for (const WorkCell& cell : plan.cells) {
    if (payloads[cell.index].is_null()) missing.push_back(cell.key);
  }
  // Torn records only matter when nothing else covers their cell — an
  // overlapping shard's intact duplicate makes the tear harmless.
  if (!missing.empty()) {
    std::ostringstream message;
    message << "result store is incomplete: " << missing.size() << " of "
            << plan.cells.size() << " cells missing";
    for (std::size_t i = 0; i < missing.size() && i < 5; ++i) {
      message << (i == 0 ? " (" : ", ") << missing[i];
    }
    if (!missing.empty()) message << (missing.size() > 5 ? ", ...)" : ")");
    if (!torn.empty()) {
      message << "; " << torn.size() << " torn record(s), first: " << torn.front().segment.string();
    }
    message << "; run the missing shards or `saga run --resume`";
    throw std::runtime_error(message.str());
  }

  merged.result = assemble_result(merged.spec, plan, payloads);
  merged.result.stats.reused = plan.cells.size();
  return merged;
}

}  // namespace saga::exp
