// Exactness and robustness of the FaultPlan text form: a printed plan parses
// back to the same bits, and no input makes the parser hand back a
// non-finite field or throw anything but std::invalid_argument. The property
// cases draw their inputs from a seeded Rng, so every failure replays.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "faults/fault_plan.h"

namespace conscale {
namespace {

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(FaultPlan, ToTextKeepsEveryDigit) {
  const FaultPlan plan =
      FaultPlan::parse("crash t=120.1234567 tier=app vm=0 restart=30");
  EXPECT_EQ(plan.to_text(), "crash t=120.1234567 tier=app vm=0 restart=30\n");
  EXPECT_EQ(bits(FaultPlan::parse(plan.to_text()).events[0].at),
            bits(120.1234567));
  // Text that six significant digits already carry keeps its bytes.
  const std::string short_text =
      "cpu t=200 dur=60 tier=db vm=all factor=0.4\n"
      "boot t=0 dur=720 factor=3\n"
      "drop t=0.05 dur=1e+06\n";
  EXPECT_EQ(FaultPlan::parse(short_text).to_text(), short_text);
}

TEST(FaultPlan, RejectsNonFiniteValuesAndBadOrdinals) {
  for (const std::string text :
       {"drop t=nan dur=5", "drop t=1 dur=inf", "drop t=-inf dur=5",
        "cpu t=1 dur=nan tier=db vm=all factor=0.5",
        "cpu t=1 dur=5 tier=db vm=all factor=infinity",
        "crash t=1 tier=app vm=0 restart=nan", "crash t=1 tier=app vm=1.7",
        "crash t=1 tier=app vm=1e30", "crash t=1 tier=app vm=nan",
        "crash t=1 tier=app vm=-1", "boot t=1e999 dur=5 factor=2"}) {
    SCOPED_TRACE(text);
    EXPECT_THROW(FaultPlan::parse(text), std::invalid_argument);
  }
  // An integral ordinal written as a float is still an ordinal.
  EXPECT_EQ(FaultPlan::parse("crash t=1 tier=app vm=2.0").events[0].vm_ordinal,
            2u);
}

/// A number of one of the shapes plans hold: small integers, short
/// decimals, and full-precision doubles across many magnitudes.
double draw_number(Rng& rng) {
  switch (rng.uniform_index(4)) {
    case 0:
      return static_cast<double>(rng.uniform_index(1000));
    case 1:
      return static_cast<double>(rng.uniform_index(100000)) / 1000.0;
    case 2:
      return rng.uniform() *
             std::pow(10.0, static_cast<double>(rng.uniform_index(12)) - 4.0);
    default:
      return std::ldexp(rng.uniform(),
                        static_cast<int>(rng.uniform_index(80)) - 20);
  }
}

double draw_positive(Rng& rng) {
  const double value = draw_number(rng);
  return value > 0.0 ? value : 0.5;
}

/// A random valid event. Fields the kind does not print keep their
/// defaults, so a round trip must reproduce every field.
FaultEvent draw_event(Rng& rng) {
  static const std::vector<std::string> tiers = {"app", "db", "web", "0",
                                                 "2",   "Tomcat"};
  FaultEvent event;
  event.at = draw_number(rng);
  const std::string tier = tiers[rng.uniform_index(tiers.size())];
  switch (rng.uniform_index(4)) {
    case 0:
      event.kind = FaultKind::kVmCrash;
      event.tier = tier;
      event.vm_ordinal = rng.uniform_index(64);
      if (rng.bernoulli(0.7)) event.restart_delay = draw_number(rng);
      break;
    case 1:
      event.kind = FaultKind::kCpuInterference;
      event.duration = draw_positive(rng);
      event.tier = tier;
      event.all_vms = rng.bernoulli(0.5);
      if (!event.all_vms) event.vm_ordinal = rng.uniform_index(64);
      event.factor = draw_positive(rng);
      break;
    case 2:
      event.kind = FaultKind::kBootJitter;
      event.duration = draw_positive(rng);
      if (rng.bernoulli(0.5)) event.tier = tier;
      event.factor = draw_positive(rng);
      break;
    default:
      event.kind = FaultKind::kMonitoringDropout;
      event.duration = draw_positive(rng);
      break;
  }
  return event;
}

TEST(FaultPlanProperty, ToTextParsesBackToTheSameBits) {
  Rng rng(1701);
  for (int trial = 0; trial < 2000; ++trial) {
    FaultPlan plan;
    const std::size_t n = 1 + rng.uniform_index(4);
    for (std::size_t i = 0; i < n; ++i) plan.events.push_back(draw_event(rng));
    const std::string text = plan.to_text();
    const FaultPlan again = FaultPlan::parse(text);
    ASSERT_EQ(again.events.size(), plan.events.size()) << text;
    for (std::size_t i = 0; i < n; ++i) {
      const FaultEvent& a = plan.events[i];
      const FaultEvent& b = again.events[i];
      SCOPED_TRACE(a.to_line());
      ASSERT_EQ(b.kind, a.kind);
      ASSERT_EQ(bits(b.at), bits(a.at));
      ASSERT_EQ(bits(b.duration), bits(a.duration));
      ASSERT_EQ(b.tier, a.tier);
      ASSERT_EQ(b.vm_ordinal, a.vm_ordinal);
      ASSERT_EQ(b.all_vms, a.all_vms);
      ASSERT_EQ(bits(b.factor), bits(a.factor));
      ASSERT_EQ(bits(b.restart_delay), bits(a.restart_delay));
    }
    ASSERT_EQ(again.to_text(), text);
  }
}

/// Parses `text` and checks the one contract for any input: a plan whose
/// numbers are all finite, or std::invalid_argument.
void expect_finite_or_invalid(const std::string& text) {
  try {
    const FaultPlan plan = FaultPlan::parse(text);
    for (const FaultEvent& event : plan.events) {
      EXPECT_TRUE(std::isfinite(event.at)) << text;
      EXPECT_TRUE(std::isfinite(event.duration)) << text;
      EXPECT_TRUE(std::isfinite(event.factor)) << text;
      EXPECT_TRUE(std::isfinite(event.restart_delay)) << text;
    }
  } catch (const std::invalid_argument&) {
    // The one clean failure mode.
  } catch (...) {
    ADD_FAILURE() << "unexpected exception type for '" << text << "'";
  }
}

TEST(FaultPlanProperty, EditedTextIsFiniteOrRejected) {
  const std::string alphabet = "0123456789.-+eE=; #\nxnaiftNA";
  // Whole-value swaps reach the spellings no single edit can produce.
  const std::vector<std::string> hostile = {
      "nan", "-nan", "inf", "-inf", "infinity", "1e999", "0x1p4", "1.7",
      "1e30", "-0", ""};
  Rng rng(1702);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string text = draw_event(rng).to_line();
    const std::size_t at = rng.uniform_index(text.size() + 1);
    const char c = alphabet[rng.uniform_index(alphabet.size())];
    switch (rng.uniform_index(4)) {
      case 0:
        text.insert(text.begin() + static_cast<long>(at), c);
        break;
      case 1:
        if (at < text.size()) text.erase(at, 1);
        break;
      case 2:
        if (at < text.size()) text[at] = c;
        break;
      default: {
        // Replace the value after one '=' with a hostile spelling.
        const std::size_t eq = text.find('=', at < text.size() ? at : 0);
        if (eq == std::string::npos) break;
        const std::size_t end = text.find(' ', eq);
        text.replace(eq + 1,
                     (end == std::string::npos ? text.size() : end) - eq - 1,
                     hostile[rng.uniform_index(hostile.size())]);
        break;
      }
    }
    expect_finite_or_invalid(text);
  }
}

}  // namespace
}  // namespace conscale
