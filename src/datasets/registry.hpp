#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/registry.hpp"
#include "common/spec.hpp"
#include "datasets/source.hpp"

/// \file registry.hpp (datasets)
/// Descriptor-based dataset registry, the exact parallel of the scheduler
/// registry (sched/registry.hpp). Every dataset self-registers a
/// `DatasetDesc` (see its .cpp under src/datasets/) carrying its name,
/// aliases, tags, declared parameters, paper instance count, and a factory
/// taking a typed key=value parameter map plus the master seed. Consumers
/// construct streaming InstanceSources from spec strings
/// (`montage?n=200&ccr=0.5`, `erdos?n=64&p=0.1&hetero=2.0`, see
/// common/spec.hpp) or enumerate the roster by tag, so dataset scenarios
/// are data rather than hand-maintained C++ name lists.
///
/// Standard tags:
///   table2      the paper's Table II set (16 datasets)
///   random      randomly weighted graph families (trees, chains, erdos)
///   workflow    the nine scientific-workflow generators
///   iot         the four RIoTBench streaming applications
///   extension   families beyond the paper's Table II (erdos, wrappers)
///   wrapper     composable sources wrapping a `base=` dataset
///   adversarial PISA-style structural/weight perturbations (perturbed)
///   stochastic  weight-noise realisations over src/stochastic (noisy)
///
/// Every dataset accepts the universal `seed=` key, which overrides the
/// master seed passed to the factory.

namespace saga::datasets {

/// Typed parameter access handed to dataset factories by the registry;
/// conversion failures name the dataset and the offending key.
class DatasetParams : public SpecParams {
 public:
  DatasetParams(std::string dataset,
                const std::vector<std::pair<std::string, std::string>>* params)
      : SpecParams("dataset", std::move(dataset), params) {}
};

/// Self-description one dataset registers.
struct DatasetDesc {
  std::string name;                  // canonical, paper spelling ("montage")
  std::vector<std::string> aliases;  // alternative spellings; lookup is
                                     // case-insensitive on top of these
  std::string summary;               // one-line family description
  std::vector<std::string> tags;     // see the standard tags above
  std::size_t paper_count = 0;       // Table II instance count (0: no paper
                                     // default, e.g. wrapping sources)
  std::vector<ParamDesc> params;     // accepted spec keys (besides `seed`)
  std::function<InstanceSourcePtr(const DatasetParams&, std::uint64_t master_seed)> factory;

  [[nodiscard]] bool has_tag(std::string_view tag) const;
  [[nodiscard]] const ParamDesc* find_param(std::string_view key) const;
};

/// Lookup/enumeration mechanics (add, find, resolve with "did you mean",
/// tags, names in registration order — Table II order, then extension
/// registration order) are shared with the scheduler registry via
/// common/registry.hpp.
class DatasetRegistry : public DescriptorRegistry<DatasetDesc> {
 public:
  DatasetRegistry() : DescriptorRegistry("dataset", "saga list --datasets") {}

  /// The process-wide registry; the built-in datasets are registered on
  /// first access (see datasets/register.cpp).
  [[nodiscard]] static DatasetRegistry& instance();

  /// Constructs a streaming source from a parsed spec. Unknown names and
  /// unknown parameter keys throw std::invalid_argument naming the offender
  /// (with a nearest-name suggestion). A `seed=` spec parameter overrides
  /// `master_seed`. The source's name() is the canonical dataset name, or
  /// the full spec string when parameters were given.
  [[nodiscard]] InstanceSourcePtr make(const Spec& spec, std::uint64_t master_seed) const;

  /// Parses `spec_string` and constructs (see common/spec.hpp for the
  /// grammar).
  [[nodiscard]] InstanceSourcePtr make(std::string_view spec_string,
                                       std::uint64_t master_seed) const;
};

/// Shared range validation for factory parameters; throws
/// std::invalid_argument naming the dataset and key unless `value` lies in
/// [lo, hi] — or equals 0 when `zero_is_default` (the "paper draw"
/// sentinel).
void check_param_range(const std::string& dataset, const char* key, std::int64_t value,
                       std::int64_t lo, std::int64_t hi, bool zero_is_default = true);

/// Registers the built-in datasets (defined in datasets/register.cpp; each
/// descriptor lives in its family's own .cpp). Called once by
/// DatasetRegistry::instance().
void register_builtin_datasets(DatasetRegistry& registry);

}  // namespace saga::datasets
