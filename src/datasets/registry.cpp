#include "datasets/registry.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "common/nearest.hpp"

namespace saga::datasets {

bool DatasetDesc::has_tag(std::string_view tag) const {
  for (const auto& t : tags) {
    if (t == tag) return true;
  }
  return false;
}

const ParamDesc* DatasetDesc::find_param(std::string_view key) const {
  for (const auto& param : params) {
    if (param.key == key) return &param;
  }
  return nullptr;
}

DatasetRegistry& DatasetRegistry::instance() {
  static DatasetRegistry& registry = *[] {
    auto* r = new DatasetRegistry;  // never destroyed: sources may be
                                    // constructed from static destructors
    register_builtin_datasets(*r);
    return r;
  }();
  return registry;
}

namespace {

/// Wraps a factory-built source so name() reports the spec string the
/// consumer actually wrote (InstanceSource's documented contract for
/// parameterized sources).
class RenamedSource final : public InstanceSource {
 public:
  RenamedSource(InstanceSourcePtr inner, std::string name)
      : inner_(std::move(inner)), name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept override { return name_; }
  [[nodiscard]] std::size_t size() const noexcept override { return inner_->size(); }
  [[nodiscard]] ProblemInstance generate(std::size_t index) const override {
    return inner_->generate(index);
  }

 private:
  InstanceSourcePtr inner_;
  std::string name_;
};

}  // namespace

InstanceSourcePtr DatasetRegistry::make(const Spec& spec, std::uint64_t master_seed) const {
  const DatasetDesc& desc = resolve(spec.name);
  std::vector<std::string> valid_keys;
  valid_keys.reserve(desc.params.size() + 1);
  for (const auto& param : desc.params) valid_keys.push_back(param.key);
  valid_keys.emplace_back("seed");
  for (const auto& [key, value] : spec.params) {
    if (key == "seed" || desc.find_param(key) != nullptr) continue;
    std::string message = "dataset '" + desc.name + "' has no parameter '" + key + "'" +
                          did_you_mean(key, valid_keys);
    message += desc.params.empty() ? "; it only accepts 'seed'"
                                   : "; valid parameters: " + join(valid_keys, ", ");
    throw std::invalid_argument(message);
  }
  const DatasetParams params(desc.name, &spec.params);
  InstanceSourcePtr source = desc.factory(params, params.get_u64("seed", master_seed));
  if (spec.params.empty()) return source;
  return std::make_unique<RenamedSource>(std::move(source), spec.to_string());
}

InstanceSourcePtr DatasetRegistry::make(std::string_view spec_string,
                                        std::uint64_t master_seed) const {
  return make(parse_spec(spec_string, "dataset"), master_seed);
}

void check_param_range(const std::string& dataset, const char* key, std::int64_t value,
                       std::int64_t lo, std::int64_t hi, bool zero_is_default) {
  if (zero_is_default && value == 0) return;
  if (value >= lo && value <= hi) return;
  throw std::invalid_argument("dataset '" + dataset + "' parameter '" + key +
                              "' must lie in [" + std::to_string(lo) + ", " +
                              std::to_string(hi) + "]" +
                              (zero_is_default ? " (or 0 for the paper draw)" : ""));
}

}  // namespace saga::datasets
