#include "common/version.hpp"

#include <atomic>

namespace saga {

VersionStamp next_version_stamp() noexcept {
  // Each thread reserves a block of stamps with one shared fetch_add and
  // hands them out locally, so mutation-heavy threads (dataset generation
  // sets thousands of link strengths per instance) do not contend on one
  // cache line. Blocks are disjoint and the counter starts at 1, so stamps
  // stay unique and non-zero.
  constexpr VersionStamp kBlock = VersionStamp{1} << 16;
  static std::atomic<VersionStamp> counter{1};
  thread_local VersionStamp next = 0;
  thread_local VersionStamp end = 0;
  if (next == end) {
    next = counter.fetch_add(kBlock, std::memory_order_relaxed);
    end = next + kBlock;
  }
  return next++;
}

}  // namespace saga
