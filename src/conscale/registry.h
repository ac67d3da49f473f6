// ControllerRegistry: the string-keyed plug-in seam that replaced the old
// closed `FrameworkKind` enum. A scaling framework is registered once as a
// `ControllerSpec` — registry key, display name, one-line description, an
// optional per-controller option parser, and a builder that assembles the
// run-scoped parts (estimator / policy / controller) — and from then on
// every experiment layer (runner, fan-out, benches, reports) refers to it by
// name. Adding a policy is one implementation file plus one registration
// line; no switch site anywhere else moves.
//
// Controller references accepted everywhere a framework name is taken:
//   "conscale"                       bare registry key
//   "pi(target_ms=250;kp=0.9)"       key plus controller-specific options,
//                                    parsed by the spec's `configure` hook
// Unknown keys and unknown option names abort loudly with the list of
// registered controllers (resp. the offending option), never silently fall
// back to a default.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "conscale/agents.h"
#include "conscale/controller.h"
#include "conscale/estimator_service.h"
#include "conscale/policy.h"
#include "metrics/warehouse.h"
#include "simcore/simulation.h"

namespace conscale::topology {
class ServiceGraph;
}  // namespace conscale::topology

namespace conscale {

struct FrameworkConfig;  // conscale/framework.h

/// Everything a builder may wire a controller into. The agents are owned by
/// the enclosing ScalingFramework and outlive the parts; `config` is only
/// guaranteed alive during the build call — copy what you keep.
struct ControllerBuildContext {
  Simulation& sim;
  topology::ServiceGraph& system;
  MetricsWarehouse& warehouse;
  HardwareAgent& hw;
  SoftwareAgent& sw;
  const FrameworkConfig& config;
};

/// What a builder returns. `controller` is mandatory; `estimator` and
/// `policy` are optional collaborators the framework keeps alive for the
/// run (destruction order: controller first, then policy, then estimator —
/// the reverse of the reference chain ConScale-style builders create).
struct FrameworkParts {
  std::unique_ptr<ConcurrencyEstimatorService> estimator;
  std::unique_ptr<SoftResourcePolicy> policy;
  std::unique_ptr<Controller> controller;
};

/// Controller-specific `key=value` options parsed out of a reference like
/// "pi(target_ms=250;kp=0.9)". Ordered so error messages are deterministic.
using ControllerOptions = std::map<std::string, std::string>;

struct ControllerSpec {
  /// Registry key ("ec2", "conscale", "pi", ...): lower-case, stable, what
  /// benches take on the command line.
  std::string name;
  /// Report/CSV/JSON name ("EC2-AutoScaling", ...). The three paper
  /// frameworks keep their historical display names byte-for-byte so
  /// existing goldens don't move.
  std::string display_name;
  /// One line for --list-controllers and the README table.
  std::string description;
  /// Literature grounding ("Venkatarama & Sekaran", ...); may be empty.
  std::string reference;
  /// Applies controller-specific options onto the run's FrameworkConfig.
  /// Null means the controller takes no options — passing any aborts.
  /// Implementations must reject unknown option names loudly.
  std::function<void(const ControllerOptions&, FrameworkConfig&)> configure;
  /// Assembles the run-scoped parts. Must be pure w.r.t. process state:
  /// everything it creates hangs off the context's run-scoped objects.
  std::function<FrameworkParts(const ControllerBuildContext&)> build;
};

/// A parsed controller reference: registry key + options, pre-validation.
struct ControllerRef {
  std::string name;
  ControllerOptions options;
};

/// Splits "name" / "name(k=v;k2=v2)" into its parts. Throws
/// std::runtime_error on malformed syntax; does NOT touch the registry
/// (lookup and option validation happen at build/config time).
ControllerRef parse_controller_ref(const std::string& text);

/// Canonical text form: "name" or "name(k=v;k2=v2)", options in map order.
/// Round-trips through parse_controller_ref.
std::string to_string(const ControllerRef& ref);

class ControllerRegistry {
 public:
  /// The process-wide registry, pre-populated with the three paper
  /// frameworks and the zoo controllers. Construction is thread-safe
  /// (function-local static); after that the run path only reads. Tests
  /// that register extra specs do so single-threaded.
  static ControllerRegistry& global();

  /// Registers a spec. Throws std::invalid_argument on an empty name, a
  /// missing builder, or a duplicate registration.
  void register_spec(ControllerSpec spec);

  bool contains(const std::string& name) const;
  /// Throws std::runtime_error naming the registered controllers when
  /// `name` is unknown — the loud-validation path every bench shares.
  const ControllerSpec& at(const std::string& name) const;
  /// Registry keys in sorted order (std::map iteration order).
  std::vector<std::string> names() const;
  /// All specs in key order, for --list-controllers and bench grids.
  std::vector<const ControllerSpec*> all() const;

  /// Parses a comma-separated controller list ("ec2,conscale,pi(kp=1)");
  /// commas inside option parentheses do not split. Every referenced name
  /// is validated against the registry — unknown ones abort with the
  /// registered list. An empty string yields an empty vector.
  std::vector<ControllerRef> parse_list(const std::string& text) const;

 private:
  ControllerRegistry();

  std::map<std::string, ControllerSpec> specs_;
};

/// Helper for `configure` hooks: pull typed values out of a ControllerOptions
/// map and reject anything left over. Usage:
///
///   OptionReader reader("pi", options);
///   reader.get("target_ms", config.pi.target_rt_ms);
///   reader.get("kp", config.pi.kp);
///   reader.finish();   // throws on unknown option names
class OptionReader {
 public:
  OptionReader(std::string controller, const ControllerOptions& options)
      : controller_(std::move(controller)), remaining_(options) {}

  /// Each get() consumes the option if present (leaving `out` untouched
  /// otherwise) and throws std::runtime_error on an unparsable value.
  void get(const std::string& key, double& out);
  void get(const std::string& key, int& out);
  /// Accepts "true"/"false"/"1"/"0".
  void get(const std::string& key, bool& out);

  /// Throws std::runtime_error naming any option no get() consumed.
  void finish() const;

 private:
  std::string take(const std::string& key, bool& found);

  std::string controller_;
  ControllerOptions remaining_;
};

}  // namespace conscale
