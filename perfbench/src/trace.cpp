#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int64_t covered_ns(std::int64_t start, std::int64_t end,
                        std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, start);
    b = std::min(b, end);
  }
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = start;  // end of the union swept so far
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    const std::int64_t from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return covered;
}

std::unordered_map<std::uint64_t, std::int64_t> self_times(
    const std::vector<Span>& spans, const std::vector<Aggregate>& aggregates) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  std::unordered_map<std::uint64_t, std::int64_t> aggregated;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  for (const Aggregate& a : aggregates) aggregated[a.parent] += a.total_ns;
  std::unordered_map<std::uint64_t, std::int64_t> self;
  self.reserve(spans.size());
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      covered = covered_ns(s.start_ns, s.end_ns, std::move(it->second));
    }
    if (auto it = aggregated.find(s.id); it != aggregated.end()) covered += it->second;
    self[s.id] = s.duration_ns() - covered;
  }
  return self;
}

namespace {
std::atomic<std::uint64_t> tracer_serials{0};
}  // namespace

Tracer::Tracer() : serial_(tracer_serials.fetch_add(1, std::memory_order_relaxed) + 1) {}

std::uint32_t Tracer::intern(const std::string& name) {
  const auto [it, inserted] = name_index_.emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

Tracer::Buffer& Tracer::local() {
  // Each thread caches its buffer for the tracer it last used; the serial
  // tells tracers apart even when one is constructed at a freed address.
  struct Cache {
    const Tracer* tracer = nullptr;
    std::uint64_t serial = 0;
    Buffer* buffer = nullptr;
  };
  thread_local Cache cache;
  if (cache.tracer != this || cache.serial != serial_) {
    std::lock_guard lock(buffers_mutex_);
    auto& slot = owners_[std::this_thread::get_id()];
    if (slot == nullptr) {
      buffers_.push_back(std::make_unique<Buffer>());
      slot = buffers_.back().get();
      slot->index = buffers_.size();
    }
    cache = {this, serial_, slot};
  }
  return *cache.buffer;
}

std::uint64_t Tracer::new_id() {
  Buffer& b = local();
  return (b.index << 40) | ++b.next;
}

void Tracer::record(const Span& span) { local().spans.push_back(span); }

void Tracer::aggregate(const Aggregate& aggregate) { local().aggregates.push_back(aggregate); }

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  for (const auto& b : buffers_) out.insert(out.end(), b->spans.begin(), b->spans.end());
  return out;
}

std::vector<Aggregate> Tracer::aggregates() const {
  std::vector<Aggregate> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->aggregates.begin(), b->aggregates.end());
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  for (const Span& s : spans()) {
    out << R"({"span":)" << s.id << R"(,"parent":)" << s.parent << R"(,"op":)" << s.op
        << R"(,"name":")" << names_[s.name] << R"(","start_ns":)" << s.start_ns
        << R"(,"end_ns":)" << s.end_ns << "}\n";
  }
  for (const Aggregate& a : aggregates()) {
    out << R"({"aggregate_of":")" << names_[a.name] << R"(","parent":)" << a.parent
        << R"(,"op":)" << a.op << R"(,"count":)" << a.count << R"(,"total_ns":)" << a.total_ns
        << "}\n";
  }
}

}  // namespace perfbench
