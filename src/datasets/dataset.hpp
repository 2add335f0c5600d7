#pragma once

/// \file dataset.hpp
/// Constants shared by the dataset generators (paper Table II). Datasets
/// themselves are streaming InstanceSources built through the
/// DatasetRegistry (datasets/registry.hpp).

namespace saga {

/// Weight-sanitising floor applied to sampled network weights: the paper's
/// clipped Gaussians allow 0, but a zero speed/strength makes every
/// makespan infinite and the ratio undefined, so generators clamp network
/// weights to at least this value.
inline constexpr double kMinNetworkWeight = 1e-3;

}  // namespace saga
