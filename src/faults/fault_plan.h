// FaultPlan: a declarative, deterministic schedule of environment
// perturbations to replay against a running ServiceGraph. The plan is data —
// it names *what* happens and *when*; the FaultInjector (injector.h) turns
// it into simcore events. Because plans carry no randomness of their own,
// the same plan + scenario seed reproduces the same run bit-for-bit, serial
// or fanned out across worker threads.
//
// Plans parse from a compact text form (the repo has a JSON writer but no
// parser — see common/json.h), one event per line or ';'-separated, with
// '#' starting a comment:
//
//   # crash the oldest running app VM at t=120 s, restart 30 s later
//   crash t=120 tier=app vm=0 restart=30
//   # 60 s noisy-neighbor window: every DB VM at 40 % of nominal speed
//   cpu t=200 dur=60 tier=db vm=all factor=0.4
//   # degraded provisioning API: scale-outs take 3x longer for 12 min
//   boot t=0 dur=720 tier=app factor=3
//   # monitoring dropout: the warehouse ingests nothing for 30 s
//   drop t=240 dur=30
//
// `tier` accepts a 0-based index, an exact tier name ("Tomcat"), or the
// aliases web/app/db (the RUBBoS 3-tier layout). `boot` with no tier hits
// every tier. `restart` omitted or negative means the crash is permanent.
// Every number must be finite, and a `vm` ordinal a non-negative integer.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/time_units.h"

namespace conscale {

enum class FaultKind {
  kVmCrash,           ///< VM failure + optional delayed restart
  kCpuInterference,   ///< time-windowed per-core speed degradation
  kBootJitter,        ///< time-windowed provisioning-delay multiplier
  kMonitoringDropout  ///< time-windowed metric-ingestion blackout
};

std::string to_string(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kVmCrash;
  SimTime at = 0.0;            ///< injection time [s]
  SimDuration duration = 0.0;  ///< window length (cpu / boot / drop)
  /// Tier selector as written in the plan (index, name, or alias); empty
  /// means "all tiers" (boot) — crash and cpu require a tier.
  std::string tier;
  std::size_t vm_ordinal = 0;  ///< which running (crash) / billed (cpu) VM
  bool all_vms = false;        ///< cpu: hit every billed VM of the tier
  double factor = 1.0;         ///< cpu: speed multiplier; boot: delay mult.
  /// Crash: restart this many seconds after the failure; < 0 = permanent.
  SimDuration restart_delay = -1.0;

  /// Canonical single-line form: parse(to_line(e)) gives back every field
  /// exactly (numbers print with as many digits as that takes).
  std::string to_line() const;
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  /// Parses the text form described above. Throws std::invalid_argument on
  /// unknown kinds, unknown keys, malformed or non-finite values, or missing
  /// required fields — a typo'd plan must fail loudly, not silently not
  /// inject.
  static FaultPlan parse(const std::string& text);

  /// Canonical text form, one event per line (stable across round-trips;
  /// used by run reports so a result names the plan that produced it).
  std::string to_text() const;
};

}  // namespace conscale
