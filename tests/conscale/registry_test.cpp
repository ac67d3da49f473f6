#include "conscale/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "conscale/framework.h"
#include "test_helpers.h"

namespace conscale {
namespace {

using testing::Harness;

// ---- reference parsing ----------------------------------------------------

TEST(ParseControllerRef, BareName) {
  const ControllerRef ref = parse_controller_ref("conscale");
  EXPECT_EQ(ref.name, "conscale");
  EXPECT_TRUE(ref.options.empty());
}

TEST(ParseControllerRef, NameWithOptions) {
  const ControllerRef ref = parse_controller_ref("pi(target_ms=250;kp=0.9)");
  EXPECT_EQ(ref.name, "pi");
  ASSERT_EQ(ref.options.size(), 2u);
  EXPECT_EQ(ref.options.at("target_ms"), "250");
  EXPECT_EQ(ref.options.at("kp"), "0.9");
}

TEST(ParseControllerRef, CommaSeparatorAndWhitespaceTolerated) {
  const ControllerRef ref =
      parse_controller_ref("  fuzzy( step_large = 12 , step_small=4 )  ");
  EXPECT_EQ(ref.name, "fuzzy");
  ASSERT_EQ(ref.options.size(), 2u);
  EXPECT_EQ(ref.options.at("step_large"), "12");
  EXPECT_EQ(ref.options.at("step_small"), "4");
}

TEST(ParseControllerRef, MalformedSyntaxAborts) {
  EXPECT_THROW(parse_controller_ref("pi(kp=1"), std::runtime_error);
  EXPECT_THROW(parse_controller_ref(""), std::runtime_error);
  EXPECT_THROW(parse_controller_ref("(kp=1)"), std::runtime_error);
  EXPECT_THROW(parse_controller_ref("pi(kp)"), std::runtime_error);
  EXPECT_THROW(parse_controller_ref("pi(=1)"), std::runtime_error);
  EXPECT_THROW(parse_controller_ref("pi(kp=1;kp=2)"), std::runtime_error);
}

TEST(ParseControllerRef, ToStringRoundTrips) {
  for (const std::string text :
       {"conscale", "pi(ki=0.2;kp=0.9)", "vertical(period=2;target_util=0.7)"}) {
    const ControllerRef ref = parse_controller_ref(text);
    EXPECT_EQ(to_string(ref), text);
    const ControllerRef again = parse_controller_ref(to_string(ref));
    EXPECT_EQ(again.name, ref.name);
    EXPECT_EQ(again.options, ref.options);
  }
}

// Property: a reference over a safe alphabet prints and parses back to
// itself; any single-character edit of its text either parses or throws
// std::runtime_error, never anything else.
TEST(ParseControllerRefProperty, RoundTripsAndEditsFailCleanly) {
  const std::string safe = "abcdefghijklmnopqrstuvwxyz0123456789_-.";
  const std::string edits = safe + "()=;, \t";
  Rng rng(1609);
  const auto draw = [&rng](const std::string& alphabet, std::size_t max_len) {
    std::string out(1 + rng.uniform_index(max_len), ' ');
    for (char& c : out) c = alphabet[rng.uniform_index(alphabet.size())];
    return out;
  };
  for (int trial = 0; trial < 3000; ++trial) {
    ControllerRef ref;
    ref.name = draw(safe, 12);
    const std::size_t n = rng.uniform_index(5);
    for (std::size_t i = 0; i < n; ++i) {
      ref.options[draw(safe, 8)] = draw(safe, 8);
    }
    const std::string text = to_string(ref);
    const ControllerRef again = parse_controller_ref(text);
    ASSERT_EQ(again.name, ref.name) << text;
    ASSERT_EQ(again.options, ref.options) << text;

    std::string edited = text;
    const std::size_t at = rng.uniform_index(edited.size() + 1);
    const char c = edits[rng.uniform_index(edits.size())];
    switch (rng.uniform_index(3)) {
      case 0:
        edited.insert(edited.begin() + static_cast<long>(at), c);
        break;
      case 1:
        if (at < edited.size()) edited.erase(at, 1);
        break;
      default:
        if (at < edited.size()) edited[at] = c;
        break;
    }
    try {
      const ControllerRef parsed = parse_controller_ref(edited);
      EXPECT_FALSE(parsed.name.empty()) << edited;
    } catch (const std::runtime_error&) {
      // The one clean failure mode.
    } catch (...) {
      ADD_FAILURE() << "unexpected exception type for '" << edited << "'";
    }
  }
}

// ---- registration ---------------------------------------------------------

TEST(ControllerRegistry, RejectsInvalidAndDuplicateSpecs) {
  ControllerRegistry& registry = ControllerRegistry::global();
  EXPECT_THROW(registry.register_spec(ControllerSpec{}),
               std::invalid_argument);
  ControllerSpec no_builder;
  no_builder.name = "zz-no-builder";
  EXPECT_THROW(registry.register_spec(no_builder), std::invalid_argument);

  ControllerSpec dup;
  dup.name = "zz-dup-test";
  dup.build = [](const ControllerBuildContext&) { return FrameworkParts{}; };
  registry.register_spec(dup);
  EXPECT_TRUE(registry.contains("zz-dup-test"));
  // Display name defaults to the registry key.
  EXPECT_EQ(registry.at("zz-dup-test").display_name, "zz-dup-test");
  EXPECT_THROW(registry.register_spec(dup), std::invalid_argument);
}

TEST(ControllerRegistry, UnknownNameListsTheRegistry) {
  try {
    ControllerRegistry::global().at("nope");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown controller 'nope'"), std::string::npos)
        << message;
    EXPECT_NE(message.find("conscale"), std::string::npos) << message;
    EXPECT_NE(message.find("holt-winters"), std::string::npos) << message;
  }
}

TEST(ControllerRegistry, NamesAreSortedAndCoverBuiltinsPlusZoo) {
  const std::vector<std::string> names = ControllerRegistry::global().names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const std::string expected : {"conscale", "dcm", "ec2", "fuzzy",
                                     "holt-winters", "hybrid", "pi",
                                     "vertical"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  // all() mirrors names(), spec pointers keyed consistently.
  for (const ControllerSpec* spec : ControllerRegistry::global().all()) {
    EXPECT_TRUE(ControllerRegistry::global().contains(spec->name));
  }
}

// ---- list parsing ---------------------------------------------------------

TEST(ControllerRegistry, ParseListSplitsOutsideParensOnly) {
  const auto refs = ControllerRegistry::global().parse_list(
      "ec2, pi(kp=2,ki=1), conscale(headroom=1.3)");
  ASSERT_EQ(refs.size(), 3u);
  EXPECT_EQ(refs[0].name, "ec2");
  EXPECT_EQ(refs[1].name, "pi");
  EXPECT_EQ(refs[1].options.size(), 2u);
  EXPECT_EQ(refs[2].name, "conscale");
  EXPECT_EQ(refs[2].options.at("headroom"), "1.3");
}

TEST(ControllerRegistry, ParseListValidatesEveryName) {
  EXPECT_TRUE(ControllerRegistry::global().parse_list("").empty());
  EXPECT_THROW(ControllerRegistry::global().parse_list("ec2,conscael"),
               std::runtime_error);
  EXPECT_THROW(ControllerRegistry::global().parse_list("pi(kp=1"),
               std::runtime_error);
}

// ---- OptionReader ---------------------------------------------------------

TEST(OptionReader, ReadsTypedValuesAndRejectsLeftovers) {
  ControllerOptions options{{"a", "1.5"}, {"b", "7"}};
  OptionReader reader("test", options);
  double a = 0.0;
  int b = 0;
  int absent = 42;
  reader.get("a", a);
  reader.get("b", b);
  reader.get("missing", absent);
  EXPECT_DOUBLE_EQ(a, 1.5);
  EXPECT_EQ(b, 7);
  EXPECT_EQ(absent, 42);  // untouched when the key is absent
  EXPECT_NO_THROW(reader.finish());
}

TEST(OptionReader, RejectsUnparsableValues) {
  {
    OptionReader reader("test", {{"a", "fast"}});
    double a = 0.0;
    EXPECT_THROW(reader.get("a", a), std::runtime_error);
  }
  {
    OptionReader reader("test", {{"b", "1.5"}});
    int b = 0;
    EXPECT_THROW(reader.get("b", b), std::runtime_error);
  }
  {
    OptionReader reader("test", {{"stray", "1"}});
    EXPECT_THROW(reader.finish(), std::runtime_error);
  }
}

TEST(OptionReader, RejectsNonFiniteNumbers) {
  for (const std::string value : {"nan", "inf", "-inf", "infinity", "NAN"}) {
    SCOPED_TRACE(value);
    OptionReader reader("test", {{"a", value}});
    double a = 1.0;
    EXPECT_THROW(reader.get("a", a), std::runtime_error);
    EXPECT_DOUBLE_EQ(a, 1.0);  // left untouched
  }
  // The whole path: a NaN gain must not reach the controller.
  Harness h;
  FrameworkConfig config;
  config.targets.thread_adapt_tiers = {kAppTier};
  EXPECT_THROW(ScalingFramework(h.sim, h.system, *h.warehouse,
                                "pi(kp=nan;target_ms=inf)", config),
               std::runtime_error);
}

// ---- factory round-trip ---------------------------------------------------

// Every shipped controller must assemble through the registry seam and
// survive an idle run: non-null controller, stable key/display name, and a
// counters() map the reports can consume.
TEST(ControllerRegistry, FactoryRoundTripForAllShippedControllers) {
  const std::vector<std::string> shipped = {
      "ec2",   "dcm",      "conscale",     "pi",
      "fuzzy", "vertical", "holt-winters", "hybrid"};
  for (const std::string& name : shipped) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(ControllerRegistry::global().contains(name));
    Harness h;
    FrameworkConfig config;
    config.targets.thread_adapt_tiers = {kAppTier};
    config.targets.conn_adapt = {{kAppTier, kDbTier}};
    config.dcm_profile.tier_optimal_concurrency[kAppTier] = 20;
    ScalingFramework framework(h.sim, h.system, *h.warehouse, name, config);
    EXPECT_EQ(framework.key(), name);
    EXPECT_EQ(framework.name(),
              ControllerRegistry::global().at(name).display_name);
    h.sim.run_until(12.0);  // periodic reviews fire without load: no crash
    const ControllerCounters counters = framework.controller().counters();
    EXPECT_FALSE(counters.empty());
  }
}

}  // namespace
}  // namespace conscale
