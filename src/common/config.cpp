#include "common/config.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

namespace conscale {

namespace {

std::string trim(const std::string& s) {
  auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return "";
  auto last = s.find_last_not_of(" \t\r\n");
  return s.substr(first, last - first + 1);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

}  // namespace

Config Config::from_args(int argc, const char* const* argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    // Accept both key=value and --key=value.
    if (token.rfind("--", 0) == 0) token = token.substr(2);
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("Config: argument '" + token +
                               "' is not key=value");
    }
    config.set(trim(token.substr(0, eq)), trim(token.substr(eq + 1)));
  }
  return config;
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Config::contains(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double Config::parse_double(const std::string& key, const std::string& text) {
  std::size_t used = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || !std::isfinite(parsed)) {
    throw std::runtime_error("Config: key '" + key + "' is not a number: " +
                             text);
  }
  return parsed;
}

double Config::get_double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_double(key, it->second);
}

long Config::get_int(const std::string& key, long fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::size_t used = 0;
  long parsed = 0;
  try {
    parsed = std::stol(it->second, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != it->second.size()) {
    throw std::runtime_error("Config: key '" + key + "' is not an integer: " +
                             it->second);
  }
  return parsed;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string v = lower(trim(it->second));
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::runtime_error("Config: key '" + key + "' is not a bool: " +
                           it->second);
}

void Config::require_known_keys(
    const std::vector<std::string>& known_keys) const {
  std::string unknown;
  for (const auto& [key, value] : values_) {  // std::map: sorted iteration
    if (std::find(known_keys.begin(), known_keys.end(), key) !=
        known_keys.end()) {
      continue;
    }
    if (!unknown.empty()) unknown += ", ";
    unknown += key;
  }
  if (unknown.empty()) return;
  std::string known;
  for (const auto& key : known_keys) {
    if (!known.empty()) known += ", ";
    known += key;
  }
  throw std::runtime_error("Config: unknown key(s): " + unknown +
                           " (known keys: " + known + ")");
}

}  // namespace conscale
