// Simulated-time units. All simulator time is kept in double-precision
// seconds; these helpers make call sites self-describing (ms(50) rather
// than 0.05) and keep unit mistakes out of the model code.
#pragma once

namespace conscale {

/// Simulated time, in seconds since the start of the simulation.
using SimTime = double;
/// A duration in simulated seconds.
using SimDuration = double;

constexpr SimDuration seconds(double s) { return s; }
constexpr SimDuration ms(double m) { return m * 1e-3; }
constexpr SimDuration us(double u) { return u * 1e-6; }
constexpr SimDuration minutes(double m) { return m * 60.0; }

constexpr double to_ms(SimDuration d) { return d * 1e3; }

/// Sentinel for "no deadline / never".
constexpr SimTime kSimTimeNever = 1e300;

}  // namespace conscale
