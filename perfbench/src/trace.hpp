#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

/// \file trace.hpp
/// In-memory spans for the traced run. The benchmark wraps each call it
/// makes into a saga module in a span (name, start, end, parent span,
/// operation id); spans are buffered per thread without locks and written
/// out once at exit. Per-step calls (two `plan_makespan` per annealing
/// step) are summed by the caller and recorded as one aggregate per
/// (parent, name), which keeps memory bounded by cells, not steps.

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: no parent
  std::uint64_t op = 0;      // operation id: a cell or a request
  std::uint32_t name = 0;    // index into Tracer::names()
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// `count` sequential, non-overlapping spans of one name under one parent,
/// kept as their summed duration.
struct Aggregate {
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  std::uint32_t name = 0;
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
};

/// Length of [start, end) covered by the union of `intervals` (each clipped
/// to the window). Overlapping intervals count once.
[[nodiscard]] std::int64_t covered_ns(std::int64_t start, std::int64_t end,
                                      std::vector<std::pair<std::int64_t, std::int64_t>> intervals);

/// Self time of every span: its duration minus the part of it covered by
/// its child spans, minus its children's aggregates.
[[nodiscard]] std::unordered_map<std::uint64_t, std::int64_t> self_times(
    const std::vector<Span>& spans, const std::vector<Aggregate>& aggregates);

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Interns a span name. Not thread-safe: intern every name before worker
  /// threads start recording.
  std::uint32_t intern(const std::string& name);
  [[nodiscard]] const std::vector<std::string>& names() const noexcept { return names_; }

  /// A fresh span id, unique across threads.
  [[nodiscard]] std::uint64_t new_id();
  void record(const Span& span);
  void aggregate(const Aggregate& aggregate);

  /// Every thread's records, merged. Call after the workers have joined.
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::vector<Aggregate> aggregates() const;

  /// Writes one JSON object per line: spans, then aggregates.
  void write_jsonl(const std::string& path) const;

 private:
  struct Buffer {
    std::uint64_t index = 0;
    std::uint64_t next = 0;
    std::vector<Span> spans;
    std::vector<Aggregate> aggregates;
  };
  Buffer& local();

  const std::uint64_t serial_;  // tells tracers apart in the per-thread cache
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> name_index_;
  std::mutex buffers_mutex_;  // guards buffers_ and owners_
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::unordered_map<std::thread::id, Buffer*> owners_;
};

/// Records [construction, destruction) as one span; a null tracer makes it
/// a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::uint32_t name, std::uint64_t parent, std::uint64_t op)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    span_.id = tracer_->new_id();
    span_.parent = parent;
    span_.op = op;
    span_.name = name;
    span_.start_ns = now_ns();
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.end_ns = now_ns();
    tracer_->record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

}  // namespace perfbench
