#include "common/spec.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace saga {

namespace {

[[noreturn]] void grammar_error(std::string_view text, std::string_view kind,
                                const std::string& what) {
  throw std::invalid_argument("bad " + std::string(kind) + " spec '" + std::string(text) +
                              "': " + what);
}

}  // namespace

std::string Spec::to_string() const {
  std::string out = name;
  char separator = '?';
  for (const auto& [key, value] : params) {
    out += separator;
    out += key;
    out += '=';
    out += value;
    separator = '&';
  }
  return out;
}

const std::string* Spec::find(std::string_view key) const {
  for (const auto& [k, v] : params) {
    if (k == key) return &v;
  }
  return nullptr;
}

Spec parse_spec(std::string_view text, std::string_view kind) {
  Spec spec;
  const std::size_t question = text.find('?');
  const std::string_view name = text.substr(0, question);
  if (name.empty()) grammar_error(text, kind, "empty " + std::string(kind) + " name");
  if (name.find_first_of("&=") != std::string_view::npos) {
    grammar_error(text, kind,
                  std::string(kind) + " name may not contain '&' or '=' (missing '?'?)");
  }
  spec.name.assign(name);
  if (question == std::string_view::npos) return spec;

  std::string_view rest = text.substr(question + 1);
  if (rest.empty()) grammar_error(text, kind, "'?' must be followed by key=value parameters");
  while (!rest.empty()) {
    const std::size_t amp = rest.find('&');
    const std::string_view param = rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view{} : rest.substr(amp + 1);
    const std::size_t eq = param.find('=');
    if (eq == std::string_view::npos) {
      grammar_error(text, kind, "parameter '" + std::string(param) + "' is missing '=value'");
    }
    const std::string key(param.substr(0, eq));
    const std::string value(param.substr(eq + 1));
    if (key.empty()) grammar_error(text, kind, "empty parameter key");
    if (value.empty()) grammar_error(text, kind, "parameter '" + key + "' has an empty value");
    if (spec.find(key) != nullptr) grammar_error(text, kind, "duplicate parameter '" + key + "'");
    spec.params.emplace_back(key, value);
    if (rest.empty() && amp != std::string_view::npos) {
      grammar_error(text, kind, "trailing '&'");
    }
  }
  return spec;
}

SpecParams::SpecParams(std::string kind, std::string owner,
                       const std::vector<std::pair<std::string, std::string>>* params)
    : kind_(std::move(kind)), owner_(std::move(owner)), params_(params) {}

const std::string* SpecParams::raw(std::string_view key) const {
  if (params_ == nullptr) return nullptr;
  for (const auto& [k, v] : *params_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool SpecParams::has(std::string_view key) const { return raw(key) != nullptr; }

void SpecParams::fail(std::string_view key, std::string_view expected,
                      const std::string& got) const {
  throw std::invalid_argument(kind_ + " '" + owner_ + "' parameter '" + std::string(key) +
                              "': expected " + std::string(expected) + ", got '" + got + "'");
}

void SpecParams::reject(std::string_view key, std::string_view expected) const {
  const std::string* value = raw(key);
  fail(key, expected, value != nullptr ? *value : std::string());
}

std::uint64_t SpecParams::get_u64(std::string_view key, std::uint64_t fallback) const {
  const std::string* value = raw(key);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const std::uint64_t parsed = std::strtoull(value->c_str(), &end, 10);
  if (end == value->c_str() || *end != '\0' || errno == ERANGE || value->front() == '-') {
    fail(key, "an unsigned integer", *value);
  }
  return parsed;
}

std::size_t SpecParams::get_size(std::string_view key, std::size_t fallback) const {
  return static_cast<std::size_t>(get_u64(key, fallback));
}

std::int64_t SpecParams::get_i64(std::string_view key, std::int64_t fallback) const {
  const std::string* value = raw(key);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const std::int64_t parsed = std::strtoll(value->c_str(), &end, 10);
  if (end == value->c_str() || *end != '\0' || errno == ERANGE) {
    fail(key, "an integer", *value);
  }
  return parsed;
}

double SpecParams::get_double(std::string_view key, double fallback) const {
  const std::string* value = raw(key);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value->c_str(), &end);
  if (end == value->c_str() || *end != '\0' || errno == ERANGE) {
    fail(key, "a number", *value);
  }
  return parsed;
}

bool SpecParams::get_bool(std::string_view key, bool fallback) const {
  const std::string* value = raw(key);
  if (value == nullptr) return fallback;
  if (*value == "true" || *value == "1") return true;
  if (*value == "false" || *value == "0") return false;
  fail(key, "true|false", *value);
}

std::string SpecParams::get_string(std::string_view key, std::string_view fallback) const {
  const std::string* value = raw(key);
  return value == nullptr ? std::string(fallback) : *value;
}

std::vector<std::string> SpecParams::get_list(std::string_view key,
                                              std::vector<std::string> fallback) const {
  const std::string* value = raw(key);
  if (value == nullptr) return fallback;
  std::vector<std::string> out;
  std::string_view rest = *value;
  while (true) {
    const std::size_t plus = rest.find('+');
    const std::string_view element = rest.substr(0, plus);
    if (element.empty()) fail(key, "a non-empty '+'-separated list", *value);
    out.emplace_back(element);
    if (plus == std::string_view::npos) break;
    rest = rest.substr(plus + 1);
    if (rest.empty()) fail(key, "a non-empty '+'-separated list", *value);
  }
  return out;
}

}  // namespace saga
