#pragma once

#include <cstdint>

/// \file version.hpp
/// Process-wide unique version stamps. Mutable graph/network containers
/// stamp themselves on every mutation; caches (InstanceView) compare stamps
/// to decide between a no-op, a weight refresh, and a structural rebuild.
/// Stamps are globally unique across objects and threads, so a stamp match
/// is safe even after instances are copied or assigned over; moved-from
/// containers re-stamp themselves so a cache can never match their gutted
/// state. Only equality is meaningful: stamps increase within one thread,
/// but a stamp taken on one thread may be smaller than an earlier one taken
/// on another.

namespace saga {

using VersionStamp = std::uint64_t;

/// Returns a fresh stamp: non-zero, never returned before to any thread,
/// and greater than every stamp this thread received before (thread-safe).
[[nodiscard]] VersionStamp next_version_stamp() noexcept;

}  // namespace saga
