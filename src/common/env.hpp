#pragma once

#include <cstddef>
#include <cstdint>

/// \file env.hpp
/// Environment-variable knobs shared by the benchmark harness:
///   SAGA_SCALE   - multiplier on experiment sizes (instances, SA restarts);
///                  1.0 reproduces the paper's settings, default is smaller
///                  so `for b in build/bench/*; do $b; done` finishes fast.
///   SAGA_SEED    - master seed (default 42).
///   SAGA_THREADS - worker threads for the experiment drivers (default: all).

namespace saga {

/// Experiment scale factor; clamped to [0.001, 100]. Default 0.25.
[[nodiscard]] double env_scale();

/// Master seed for all experiment RNG streams. Default 42.
[[nodiscard]] std::uint64_t env_seed();

/// Thread count for the global pool; 0 means hardware concurrency. A value
/// above kMaxThreads (common/thread_pool.hpp) is treated as unparsable: 0.
[[nodiscard]] std::size_t env_threads();

/// Scales a paper-fidelity count by env_scale(), keeping at least `floor_`.
[[nodiscard]] std::size_t scaled_count(std::size_t paper_count, std::size_t floor_ = 4);

}  // namespace saga
