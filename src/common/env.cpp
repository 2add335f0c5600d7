#include "common/env.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "common/thread_pool.hpp"

namespace saga {

namespace {

// getenv is read-only here and every call site runs before any worker thread
// starts (knob snapshots at startup); nothing in the process calls setenv, so
// the POSIX getenv/setenv race concurrency-mt-unsafe guards against cannot
// occur.
double read_double(const char* name, double fallback) {
  const char* raw = std::getenv(name);  // NOLINT(concurrency-mt-unsafe)
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const double value = std::strtod(raw, &end);
  if (end == raw) return fallback;
  return value;
}

std::uint64_t read_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);  // NOLINT(concurrency-mt-unsafe)
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  if (end == raw) return fallback;
  return value;
}

}  // namespace

double env_scale() {
  const double s = read_double("SAGA_SCALE", 0.25);
  return std::clamp(s, 0.001, 100.0);
}

std::uint64_t env_seed() { return read_u64("SAGA_SEED", 42); }

std::size_t env_threads() {
  // Above kMaxThreads (including "-1", which strtoull wraps) counts as
  // unparsable: fall back to hardware concurrency.
  const std::uint64_t threads = read_u64("SAGA_THREADS", 0);
  return threads > kMaxThreads ? 0 : static_cast<std::size_t>(threads);
}

std::size_t scaled_count(std::size_t paper_count, std::size_t floor_) {
  const double scaled = std::round(static_cast<double>(paper_count) * env_scale());
  const auto n = static_cast<std::size_t>(std::max(scaled, 1.0));
  return std::max(n, std::min(floor_, paper_count));
}

}  // namespace saga
