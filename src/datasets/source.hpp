#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "graph/problem_instance.hpp"

/// \file source.hpp (datasets)
/// The streaming dataset API. An InstanceSource is a lazy, index-addressable
/// stream of problem instances: `generate(i)` is pure (same index, same
/// instance) and safe to call concurrently from benchmark workers, so whole
/// datasets never need to be materialized in memory. Sources are produced by
/// the DatasetRegistry from spec strings (`montage?n=200&ccr=0.5`, see
/// datasets/registry.hpp) and compose: wrapping sources (perturbed, noisy)
/// take another source as their base.

namespace saga::datasets {

class InstanceSource {
 public:
  virtual ~InstanceSource() = default;

  /// The source's display name: the canonical dataset name, or the spec
  /// string it was constructed from when parameters were given.
  [[nodiscard]] virtual const std::string& name() const noexcept = 0;

  /// The source's natural instance count — the paper's Table II count for
  /// registry datasets, the base source's size for wrapping sources. This is
  /// a default for consumers that want "the whole dataset": `generate`
  /// accepts any index, so callers may stream past `size()` freely.
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;

  /// Generates the instance at `index`. Pure and thread-safe: deterministic
  /// in (source configuration, master seed, index), no mutable state.
  [[nodiscard]] virtual ProblemInstance generate(std::size_t index) const = 0;
};

using InstanceSourcePtr = std::unique_ptr<InstanceSource>;

/// FNV-1a hash of a dataset name, the per-instance seed-stream selector.
/// Kept stable so paper-default instances stay bit-identical (the dataset
/// digest suite pins them).
[[nodiscard]] std::uint64_t dataset_name_hash(std::string_view name) noexcept;

/// Adapts a plain `seed -> instance` generator into a source: instance i is
/// generated from derive_seed(master_seed, {dataset_name_hash(stream), i}),
/// where `stream` is the canonical dataset name, so parameterized specs of
/// one family share its seed stream. `display` defaults to `stream`; pass
/// the full spec string for parameterized sources.
class GeneratorSource final : public InstanceSource {
 public:
  using Generator = std::function<ProblemInstance(std::uint64_t seed)>;

  GeneratorSource(std::string stream, std::size_t size, std::uint64_t master_seed,
                  Generator generator, std::string display = {});

  [[nodiscard]] const std::string& name() const noexcept override { return display_; }
  [[nodiscard]] std::size_t size() const noexcept override { return size_; }
  [[nodiscard]] ProblemInstance generate(std::size_t index) const override;

 private:
  std::string display_;
  std::uint64_t stream_hash_ = 0;
  std::size_t size_ = 0;
  std::uint64_t master_seed_ = 0;
  Generator generator_;
};

}  // namespace saga::datasets
