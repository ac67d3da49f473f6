#include "conscale/registry.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "conscale/framework.h"
#include "conscale/zoo/zoo.h"

namespace conscale {

namespace {

std::string strip(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  const auto end = text.find_last_not_of(" \t");
  return text.substr(begin, end - begin + 1);
}

ControllerOptions parse_options(const std::string& body,
                                const std::string& full) {
  ControllerOptions options;
  std::string token;
  std::istringstream in(body);
  // ';' is the documented separator; ',' works too since the list splitter
  // is paren-aware.
  while (std::getline(in, token, ';')) {
    std::istringstream inner(token);
    std::string piece;
    while (std::getline(inner, piece, ',')) {
      piece = strip(piece);
      if (piece.empty()) continue;
      const auto eq = piece.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw std::runtime_error("controller reference '" + full +
                                 "': option '" + piece +
                                 "' is not key=value");
      }
      const std::string key = strip(piece.substr(0, eq));
      if (!options.emplace(key, strip(piece.substr(eq + 1))).second) {
        throw std::runtime_error("controller reference '" + full +
                                 "': duplicate option '" + key + "'");
      }
    }
  }
  return options;
}

}  // namespace

ControllerRef parse_controller_ref(const std::string& text) {
  const std::string trimmed = strip(text);
  ControllerRef ref;
  const auto open = trimmed.find('(');
  if (open == std::string::npos) {
    ref.name = trimmed;
  } else {
    if (trimmed.empty() || trimmed.back() != ')') {
      throw std::runtime_error("controller reference '" + text +
                               "': missing closing ')'");
    }
    ref.name = strip(trimmed.substr(0, open));
    ref.options = parse_options(
        trimmed.substr(open + 1, trimmed.size() - open - 2), text);
  }
  if (ref.name.empty()) {
    throw std::runtime_error("controller reference '" + text +
                             "': empty controller name");
  }
  return ref;
}

std::string to_string(const ControllerRef& ref) {
  if (ref.options.empty()) return ref.name;
  std::ostringstream out;
  out << ref.name << "(";
  bool first = true;
  for (const auto& [key, value] : ref.options) {
    if (!first) out << ";";
    out << key << "=" << value;
    first = false;
  }
  out << ")";
  return out.str();
}

ControllerRegistry& ControllerRegistry::global() {
  static ControllerRegistry registry;
  return registry;
}

ControllerRegistry::ControllerRegistry() {
  detail::register_builtin_controllers(*this);
  zoo::register_zoo_controllers(*this);
}

void ControllerRegistry::register_spec(ControllerSpec spec) {
  if (spec.name.empty()) {
    throw std::invalid_argument("ControllerSpec: empty registry name");
  }
  if (!spec.build) {
    throw std::invalid_argument("ControllerSpec '" + spec.name +
                                "': missing builder");
  }
  if (spec.display_name.empty()) spec.display_name = spec.name;
  const std::string name = spec.name;
  if (!specs_.emplace(name, std::move(spec)).second) {
    throw std::invalid_argument("ControllerSpec '" + name +
                                "': already registered");
  }
}

bool ControllerRegistry::contains(const std::string& name) const {
  return specs_.find(name) != specs_.end();
}

const ControllerSpec& ControllerRegistry::at(const std::string& name) const {
  const auto it = specs_.find(name);
  if (it == specs_.end()) {
    std::ostringstream message;
    message << "unknown controller '" << name << "'; registered:";
    for (const auto& [key, spec] : specs_) message << " " << key;
    throw std::runtime_error(message.str());
  }
  return it->second;
}

std::vector<std::string> ControllerRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(specs_.size());
  for (const auto& [key, spec] : specs_) result.push_back(key);
  return result;
}

std::vector<const ControllerSpec*> ControllerRegistry::all() const {
  std::vector<const ControllerSpec*> result;
  result.reserve(specs_.size());
  for (const auto& [key, spec] : specs_) result.push_back(&spec);
  return result;
}

std::vector<ControllerRef> ControllerRegistry::parse_list(
    const std::string& text) const {
  std::vector<ControllerRef> refs;
  std::string current;
  int depth = 0;
  const auto flush = [&] {
    const std::string piece = strip(current);
    current.clear();
    if (piece.empty()) return;
    ControllerRef ref = parse_controller_ref(piece);
    at(ref.name);  // loud validation: unknown names list the registry
    refs.push_back(std::move(ref));
  };
  for (const char c : text) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == ',' && depth == 0) {
      flush();
    } else {
      current.push_back(c);
    }
  }
  if (depth != 0) {
    throw std::runtime_error("controller list '" + text +
                             "': unbalanced parentheses");
  }
  flush();
  return refs;
}

std::string OptionReader::take(const std::string& key, bool& found) {
  const auto it = remaining_.find(key);
  if (it == remaining_.end()) {
    found = false;
    return "";
  }
  found = true;
  std::string value = it->second;
  remaining_.erase(it);
  return value;
}

void OptionReader::get(const std::string& key, double& out) {
  bool found = false;
  const std::string value = take(key, found);
  if (!found) return;
  std::size_t used = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != value.size() || value.empty() || !std::isfinite(parsed)) {
    throw std::runtime_error("controller '" + controller_ + "': option '" +
                             key + "=" + value + "' is not a finite number");
  }
  out = parsed;
}

void OptionReader::get(const std::string& key, int& out) {
  bool found = false;
  const std::string value = take(key, found);
  if (!found) return;
  std::size_t used = 0;
  int parsed = 0;
  try {
    parsed = std::stoi(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != value.size() || value.empty()) {
    throw std::runtime_error("controller '" + controller_ + "': option '" +
                             key + "=" + value + "' is not an integer");
  }
  out = parsed;
}

void OptionReader::get(const std::string& key, bool& out) {
  bool found = false;
  const std::string value = take(key, found);
  if (!found) return;
  if (value == "true" || value == "1") {
    out = true;
  } else if (value == "false" || value == "0") {
    out = false;
  } else {
    throw std::runtime_error("controller '" + controller_ + "': option '" +
                             key + "=" + value + "' is not a boolean");
  }
}

void OptionReader::finish() const {
  if (remaining_.empty()) return;
  std::ostringstream message;
  message << "controller '" << controller_ << "': unknown option(s):";
  for (const auto& [key, value] : remaining_) message << " " << key;
  throw std::runtime_error(message.str());
}

}  // namespace conscale
