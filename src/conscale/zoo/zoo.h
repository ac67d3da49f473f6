// The controller zoo: scaling frameworks beyond the paper's three, each one
// implementation file plus one registration line in zoo.cpp. Registered
// keys: "pi", "fuzzy", "vertical", "holt-winters", "hybrid".
#pragma once

namespace conscale {

class ControllerRegistry;

namespace zoo {

/// Registers every zoo controller. Called once by the registry constructor;
/// exposed for tests that build a private registry.
void register_zoo_controllers(ControllerRegistry& registry);

}  // namespace zoo
}  // namespace conscale
