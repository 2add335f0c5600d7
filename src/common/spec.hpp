#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file spec.hpp (common)
/// The registry spec-string grammar shared by schedulers (sched/registry.hpp)
/// and datasets (datasets/registry.hpp):
///
///   spec   := name [ '?' param ( '&' param )* ]
///   param  := key '=' value
///   value  := any characters except '&' ('+' separates list elements)
///
/// Examples: `HEFT`, `ga?pop=64&gens=200`, `montage?n=200&ccr=0.5`,
/// `erdos?n=64&p=0.1&hetero=2.0`, `ensemble?members=heft+cpop+minmin`.
/// Names resolve case-insensitively against the owning registry; parameter
/// keys are validated against the entry's declared descriptor, and every
/// entry also accepts the universal `seed` key. `parse` / `to_string`
/// round-trip exactly.

namespace saga {

/// One declared spec parameter of a registry entry (scheduler or dataset).
struct ParamDesc {
  std::string key;
  std::string summary;  // human help: type, accepted values, default, range
};

/// A parsed spec string: entry name plus key=value parameters in the order
/// they were written.
struct Spec {
  std::string name;
  std::vector<std::pair<std::string, std::string>> params;

  /// Serializes back to the grammar above; `parse_spec(s, kind).to_string()
  /// == s` for any valid spec string `s`.
  [[nodiscard]] std::string to_string() const;

  /// The value for `key`, or null when absent.
  [[nodiscard]] const std::string* find(std::string_view key) const;
};

/// Parses a spec string; throws std::invalid_argument on grammar errors
/// (empty name, missing '=', empty or duplicate keys — the message names
/// the offending key). `kind` ("scheduler", "dataset") only flavours the
/// error messages. Does not consult any registry: unknown names and
/// parameter keys are diagnosed at construction time.
[[nodiscard]] Spec parse_spec(std::string_view text, std::string_view kind);

/// Typed, validated access to a spec's parameters, handed to registry
/// factories. Conversion failures throw std::invalid_argument naming the
/// owning entry (`<kind> '<owner>'`) and the offending key.
class SpecParams {
 public:
  SpecParams(std::string kind, std::string owner,
             const std::vector<std::pair<std::string, std::string>>* params);

  [[nodiscard]] bool has(std::string_view key) const;
  [[nodiscard]] std::uint64_t get_u64(std::string_view key, std::uint64_t fallback) const;
  [[nodiscard]] std::size_t get_size(std::string_view key, std::size_t fallback) const;
  [[nodiscard]] std::int64_t get_i64(std::string_view key, std::int64_t fallback) const;
  [[nodiscard]] double get_double(std::string_view key, double fallback) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;
  [[nodiscard]] std::string get_string(std::string_view key, std::string_view fallback) const;
  /// '+'-separated list, e.g. `members=heft+cpop+minmin`.
  [[nodiscard]] std::vector<std::string> get_list(std::string_view key,
                                                  std::vector<std::string> fallback) const;

  /// Throws the conversion-failure error for a value that parsed but lies
  /// outside the accepted range, e.g. `reject("alpha", "a number in (0, 1)")`.
  [[noreturn]] void reject(std::string_view key, std::string_view expected) const;

 private:
  [[nodiscard]] const std::string* raw(std::string_view key) const;
  [[noreturn]] void fail(std::string_view key, std::string_view expected,
                         const std::string& got) const;

  std::string kind_;
  std::string owner_;
  const std::vector<std::pair<std::string, std::string>>* params_;
};

}  // namespace saga
