// Key/value configuration used by examples and benches: parses "key=value"
// pairs from argv, with typed getters and defaults so every experiment knob
// is overridable from the command line.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace conscale {

class Config {
 public:
  Config() = default;

  /// Parses "key=value" (or "--key=value") tokens. Throws
  /// std::runtime_error on a token without '=': a bare `duration 60` must
  /// abort, not silently run the default.
  static Config from_args(int argc, const char* const* argv);

  void set(const std::string& key, const std::string& value);
  bool contains(const std::string& key) const;

  std::string get_string(const std::string& key,
                         const std::string& fallback = "") const;
  /// Numeric getters read the whole value or throw std::runtime_error:
  /// `max_q=5x`, `duration=60s` and `jobs=4.0` must abort, not run as 5, 60
  /// and 4. get_double also rejects nan and inf.
  double get_double(const std::string& key, double fallback) const;
  long get_int(const std::string& key, long fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// get_double's check for text read under `key` outside a Config (a
  /// comma-separated list, say): the whole of `text` as a finite number.
  static double parse_double(const std::string& key, const std::string& text);

  /// Validation: throws std::runtime_error naming every key not in
  /// `known_keys` (sorted, so the message is deterministic). A mistyped
  /// `durration=60` must abort the bench, not silently run the default.
  void require_known_keys(const std::vector<std::string>& known_keys) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace conscale
