// ThresholdRule: the classic utilization-threshold autoscaling rule that all
// three evaluated frameworks share for *hardware* scaling (§V): scale out
// when tier CPU exceeds the high threshold (EC2-AutoScaling's 80 %), scale
// in when it stays under the low threshold. Implements the paper's
// "quick start but slow turn off" strategy (after Gandhi et al.): the
// scale-out decision needs only a couple of consecutive hot samples, the
// scale-in decision requires a long sustained cold period, and a cooldown
// suppresses oscillation after any action (cf. Dutreilh et al., related
// work).
#pragma once

#include <string>

#include "common/time_units.h"

namespace conscale {

enum class ScalingDirection { kNone, kOut, kIn };

std::string to_string(ScalingDirection direction);

struct ThresholdRuleParams {
  double scale_out_threshold = 0.80;  ///< the paper's pre-defined 80 %
  double scale_in_threshold = 0.30;
  int out_sustain_ticks = 2;   ///< quick start
  int in_sustain_ticks = 45;   ///< slow turn off
  SimDuration cooldown = 20.0; ///< quiet period after any scaling action
};

class ThresholdRule {
 public:
  explicit ThresholdRule(ThresholdRuleParams params) : params_(params) {}

  /// Feeds one utilization sample; returns the action to take now.
  /// `blocked` indicates an in-flight scaling action on this tier
  /// (e.g. a VM still provisioning) — evaluation pauses while set.
  ScalingDirection evaluate(SimTime now, double cpu_utilization, bool blocked);

  /// Must be called when an action is actually executed, to start the
  /// cooldown and reset the sustain counters.
  void on_action(SimTime now);

 private:
  ThresholdRuleParams params_;
  int hot_ticks_ = 0;
  int cold_ticks_ = 0;
  SimTime cooldown_until_ = -1.0;
};

}  // namespace conscale
