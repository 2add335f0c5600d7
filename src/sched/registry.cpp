#include "sched/registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/nearest.hpp"

namespace saga {

bool SchedulerDesc::has_tag(std::string_view tag) const {
  for (const auto& t : tags) {
    if (t == tag) return true;
  }
  return false;
}

const ParamDesc* SchedulerDesc::find_param(std::string_view key) const {
  for (const auto& param : params) {
    if (param.key == key) return &param;
  }
  return nullptr;
}

SchedulerRegistry& SchedulerRegistry::instance() {
  static SchedulerRegistry& registry = *[] {
    auto* r = new SchedulerRegistry;  // never destroyed: schedulers may be
                                      // constructed from static destructors
    register_builtin_schedulers(*r);
    return r;
  }();
  return registry;
}

void SchedulerRegistry::add(SchedulerDesc desc) {
  if (desc.randomized && !desc.has_tag("randomized")) desc.tags.emplace_back("randomized");
  DescriptorRegistry::add(std::move(desc));
}

std::vector<std::string> SchedulerRegistry::names(std::string_view tag,
                                                  NameOrder order) const {
  std::vector<std::string> out = DescriptorRegistry::names(tag);
  if (order == NameOrder::kLexicographic) std::sort(out.begin(), out.end());
  return out;
}

SchedulerPtr SchedulerRegistry::make(const Spec& spec, std::uint64_t seed) const {
  const SchedulerDesc& desc = resolve(spec.name);
  std::vector<std::string> valid_keys;
  valid_keys.reserve(desc.params.size() + 1);
  for (const auto& param : desc.params) valid_keys.push_back(param.key);
  valid_keys.emplace_back("seed");
  for (const auto& [key, value] : spec.params) {
    if (key == "seed" || desc.find_param(key) != nullptr) continue;
    std::string message = "scheduler '" + desc.name + "' has no parameter '" + key + "'" +
                          did_you_mean(key, valid_keys);
    message += desc.params.empty() ? "; it only accepts 'seed'"
                                   : "; valid parameters: " + join(valid_keys, ", ");
    throw std::invalid_argument(message);
  }
  const SchedulerParams params(desc.name, &spec.params);
  return desc.factory(params, params.get_u64("seed", seed));
}

SchedulerPtr SchedulerRegistry::make(std::string_view spec_string, std::uint64_t seed) const {
  return make(parse_spec(spec_string, "scheduler"), seed);
}

}  // namespace saga
