#include "faults/fault_plan.h"

#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace conscale {

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kVmCrash:
      return "crash";
    case FaultKind::kCpuInterference:
      return "cpu";
    case FaultKind::kBootJitter:
      return "boot";
    case FaultKind::kMonitoringDropout:
      return "drop";
  }
  return "?";
}

namespace {

[[noreturn]] void fail(const std::string& entry, const std::string& why) {
  throw std::invalid_argument("FaultPlan: " + why + " in entry '" + entry +
                              "'");
}

double parse_number(const std::string& entry, const std::string& key,
                    const std::string& value) {
  std::size_t consumed = 0;
  double out = 0.0;
  try {
    out = std::stod(value, &consumed);
  } catch (const std::exception&) {
    fail(entry, "malformed value for '" + key + "'");
  }
  if (consumed != value.size()) {
    fail(entry, "malformed value for '" + key + "'");
  }
  if (!std::isfinite(out)) fail(entry, "non-finite value for '" + key + "'");
  return out;
}

/// Every integer up to 2^53 is exact in a double, so an ordinal in range
/// parses and prints back unchanged.
constexpr double kMaxVmOrdinal = 9007199254740992.0;

/// `value` as %g text with the fewest significant digits, from the default
/// 6 up, that parse back to exactly `value`; where 6 suffice this is
/// plain `%g`.
std::string format_number(double value) {
  for (int digits = 6;; ++digits) {
    std::ostringstream out;
    out << std::setprecision(digits) << value;
    if (digits >= std::numeric_limits<double>::max_digits10 ||
        std::strtod(out.str().c_str(), nullptr) == value) {
      return out.str();
    }
  }
}

std::vector<std::string> tokenize(const std::string& entry) {
  std::vector<std::string> tokens;
  std::istringstream stream(entry);
  std::string token;
  while (stream >> token) tokens.push_back(token);
  return tokens;
}

FaultEvent parse_entry(const std::string& entry) {
  const std::vector<std::string> tokens = tokenize(entry);
  FaultEvent event;
  const std::string& kind = tokens.front();
  if (kind == "crash") {
    event.kind = FaultKind::kVmCrash;
  } else if (kind == "cpu") {
    event.kind = FaultKind::kCpuInterference;
  } else if (kind == "boot") {
    event.kind = FaultKind::kBootJitter;
  } else if (kind == "drop") {
    event.kind = FaultKind::kMonitoringDropout;
  } else {
    fail(entry, "unknown fault kind '" + kind + "'");
  }

  bool saw_t = false, saw_dur = false, saw_factor = false, saw_vm = false;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
      fail(entry, "expected key=value, got '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "t") {
      event.at = parse_number(entry, key, value);
      saw_t = true;
    } else if (key == "dur") {
      event.duration = parse_number(entry, key, value);
      saw_dur = true;
    } else if (key == "tier") {
      event.tier = value;
    } else if (key == "vm") {
      if (value == "all") {
        event.all_vms = true;
      } else {
        const double ordinal = parse_number(entry, key, value);
        if (ordinal < 0.0) fail(entry, "vm ordinal must be >= 0");
        if (ordinal != std::floor(ordinal)) {
          fail(entry, "vm ordinal must be an integer");
        }
        if (ordinal > kMaxVmOrdinal) fail(entry, "vm ordinal out of range");
        event.vm_ordinal = static_cast<std::size_t>(ordinal);
      }
      saw_vm = true;
    } else if (key == "factor") {
      event.factor = parse_number(entry, key, value);
      saw_factor = true;
    } else if (key == "restart") {
      event.restart_delay = parse_number(entry, key, value);
    } else {
      fail(entry, "unknown key '" + key + "'");
    }
  }

  if (!saw_t) fail(entry, "missing required key 't'");
  if (event.at < 0.0) fail(entry, "'t' must be >= 0");
  switch (event.kind) {
    case FaultKind::kVmCrash:
      if (event.tier.empty()) fail(entry, "crash requires 'tier'");
      if (event.all_vms) fail(entry, "crash targets one VM, not vm=all");
      break;
    case FaultKind::kCpuInterference:
      if (event.tier.empty()) fail(entry, "cpu requires 'tier'");
      if (!saw_dur || event.duration <= 0.0) {
        fail(entry, "cpu requires 'dur' > 0");
      }
      if (!saw_factor || event.factor <= 0.0) {
        fail(entry, "cpu requires 'factor' > 0");
      }
      if (!saw_vm) fail(entry, "cpu requires 'vm' (ordinal or all)");
      break;
    case FaultKind::kBootJitter:
      if (!saw_dur || event.duration <= 0.0) {
        fail(entry, "boot requires 'dur' > 0");
      }
      if (!saw_factor || event.factor <= 0.0) {
        fail(entry, "boot requires 'factor' > 0");
      }
      break;
    case FaultKind::kMonitoringDropout:
      if (!saw_dur || event.duration <= 0.0) {
        fail(entry, "drop requires 'dur' > 0");
      }
      break;
  }
  return event;
}

}  // namespace

std::string FaultEvent::to_line() const {
  std::ostringstream out;
  out << to_string(kind) << " t=" << format_number(at);
  switch (kind) {
    case FaultKind::kVmCrash:
      out << " tier=" << tier << " vm=" << vm_ordinal;
      if (restart_delay >= 0.0) {
        out << " restart=" << format_number(restart_delay);
      }
      break;
    case FaultKind::kCpuInterference:
      out << " dur=" << format_number(duration) << " tier=" << tier << " vm="
          << (all_vms ? std::string("all") : std::to_string(vm_ordinal))
          << " factor=" << format_number(factor);
      break;
    case FaultKind::kBootJitter:
      out << " dur=" << format_number(duration);
      if (!tier.empty()) out << " tier=" << tier;
      out << " factor=" << format_number(factor);
      break;
    case FaultKind::kMonitoringDropout:
      out << " dur=" << format_number(duration);
      break;
  }
  return out.str();
}

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream entries(line);
    std::string entry;
    while (std::getline(entries, entry, ';')) {
      if (tokenize(entry).empty()) continue;  // blank / comment-only
      plan.events.push_back(parse_entry(entry));
    }
  }
  return plan;
}

std::string FaultPlan::to_text() const {
  std::string out;
  for (const auto& event : events) {
    out += event.to_line();
    out += '\n';
  }
  return out;
}

}  // namespace conscale
