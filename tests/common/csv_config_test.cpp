#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/csv.h"
#include "common/rng.h"

namespace conscale {
namespace {

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"a", "b"});
  csv.row({1.0, 2.5});
  csv.row({3.0, 4.0});
  EXPECT_EQ(out.str(), "a,b\n1,2.5\n3,4\n");
  EXPECT_EQ(csv.rows_written(), 2u);
}

TEST(Csv, EscapesSpecialCharacters) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.raw_row({"plain", "has,comma", "has\"quote", "multi\nline"});
  EXPECT_EQ(out.str(),
            "plain,\"has,comma\",\"has\"\"quote\",\"multi\nline\"\n");
}

TEST(Csv, ThrowsOnUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv"), std::runtime_error);
}

TEST(Csv, WritesToFile) {
  const std::string path = ::testing::TempDir() + "/csv_test.csv";
  {
    CsvWriter csv(path);
    csv.header({"x"});
    csv.row({42.0});
  }
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "x\n42\n");
  std::remove(path.c_str());
}

TEST(Config, ParsesKeyValueArgs) {
  const char* argv[] = {"prog", "alpha=1.5", "--name=test"};
  const Config c = Config::from_args(3, argv);
  EXPECT_DOUBLE_EQ(c.get_double("alpha", 0.0), 1.5);
  EXPECT_EQ(c.get_string("name"), "test");
}

TEST(Config, BareTokenThrows) {
  // "duration 60" must not pass key validation and then run the default.
  const char* spaced[] = {"prog", "duration", "60"};
  EXPECT_THROW(Config::from_args(3, spaced), std::runtime_error);
  const char* flag[] = {"prog", "seed=1", "--verbose"};
  EXPECT_THROW(Config::from_args(3, flag), std::runtime_error);
}

// Property: any key=value token over a safe alphabet reads back unchanged,
// and inserting one bare token anywhere makes the whole parse throw.
TEST(ConfigProperty, KeyValueTokensReadBackAndBareTokensThrow) {
  const std::string key_chars = "abcdefghijklmnopqrstuvwxyz_0123456789";
  const std::string value_chars = key_chars + "./:@,-+=()";
  Rng rng(2024);
  const auto draw = [&rng](const std::string& alphabet, std::size_t max_len) {
    std::string out(1 + rng.uniform_index(max_len), ' ');
    for (char& c : out) c = alphabet[rng.uniform_index(alphabet.size())];
    return out;
  };
  for (int trial = 0; trial < 2000; ++trial) {
    std::map<std::string, std::string> expected;
    std::vector<std::string> tokens = {"prog"};
    const std::size_t n = rng.uniform_index(6);
    for (std::size_t i = 0; i < n; ++i) {
      const std::string key = draw(key_chars, 12);
      const std::string value = draw(value_chars, 16);
      expected[key] = value;  // a later duplicate overrides an earlier one
      tokens.push_back((rng.bernoulli(0.5) ? "--" : "") + key + "=" + value);
    }
    std::vector<const char*> argv;
    for (const std::string& token : tokens) argv.push_back(token.c_str());
    const Config c =
        Config::from_args(static_cast<int>(argv.size()), argv.data());
    for (const auto& [key, value] : expected) {
      ASSERT_EQ(c.get_string(key, "<absent>"), value) << key;
    }
    std::vector<std::string> keys;
    for (const auto& entry : expected) keys.push_back(entry.first);
    EXPECT_NO_THROW(c.require_known_keys(keys));

    const std::string bare = draw(key_chars, 12);
    const std::size_t at = 1 + rng.uniform_index(tokens.size());
    tokens.insert(tokens.begin() + static_cast<long>(at),
                  (rng.bernoulli(0.5) ? "--" : "") + bare);
    argv.clear();
    for (const std::string& token : tokens) argv.push_back(token.c_str());
    EXPECT_THROW(
        Config::from_args(static_cast<int>(argv.size()), argv.data()),
        std::runtime_error)
        << "bare token '" << bare << "'";
  }
}

TEST(Config, FallbacksWhenMissing) {
  const Config c;
  EXPECT_EQ(c.get_string("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(c.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(c.get_int("missing", 7), 7);
  EXPECT_TRUE(c.get_bool("missing", true));
  EXPECT_FALSE(c.contains("missing"));
}

TEST(Config, BoolParsing) {
  Config c;
  c.set("t1", "true");
  c.set("t2", "Yes");
  c.set("t3", "1");
  c.set("f1", "off");
  c.set("bad", "maybe");
  EXPECT_TRUE(c.get_bool("t1", false));
  EXPECT_TRUE(c.get_bool("t2", false));
  EXPECT_TRUE(c.get_bool("t3", false));
  EXPECT_FALSE(c.get_bool("f1", true));
  EXPECT_THROW(c.get_bool("bad", false), std::runtime_error);
}

TEST(Config, NumericParseErrors) {
  // The whole value must be a number, and a finite one: `max_q=5x` must not
  // run as max_q=5, nor `jobs=4.0` as jobs=4.
  for (const char* bad : {"notanumber", "", "5x", "60s", "1.5.2", "nan",
                          "inf", "-inf", "1e999"}) {
    Config c;
    c.set("x", bad);
    EXPECT_THROW(c.get_double("x", 0.0), std::runtime_error) << bad;
    EXPECT_THROW(Config::parse_double("x", bad), std::runtime_error) << bad;
  }
  for (const char* bad : {"notanumber", "", "4x", "4.0", "1e3",
                          "99999999999999999999"}) {
    Config c;
    c.set("x", bad);
    EXPECT_THROW(c.get_int("x", 0), std::runtime_error) << bad;
  }
  Config c;
  c.set("x", "5x");
  try {
    c.get_double("x", 0.0);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "Config: key 'x' is not a number: 5x");
  }
  c.set("d", "-2.5e1");
  c.set("i", "-42");
  EXPECT_DOUBLE_EQ(c.get_double("d", 0.0), -25.0);
  EXPECT_EQ(c.get_int("i", 0), -42);
}

TEST(Config, RequireKnownKeysPassesOnKnownSubset) {
  Config c;
  c.set("work_scale", "16");
  c.set("seed", "7");
  EXPECT_NO_THROW(c.require_known_keys({"work_scale", "seed", "duration"}));
  EXPECT_NO_THROW(Config().require_known_keys({}));  // empty config, any list
}

TEST(Config, RequireKnownKeysNamesEveryOffender) {
  Config c;
  c.set("durration", "60");  // the classic typo
  c.set("work_scale", "16");
  c.set("zeed", "7");
  try {
    c.require_known_keys({"work_scale", "seed", "duration"});
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    // Both unknown keys are listed (sorted), and the known ones are offered.
    EXPECT_NE(message.find("durration"), std::string::npos) << message;
    EXPECT_NE(message.find("zeed"), std::string::npos) << message;
    EXPECT_NE(message.find("duration"), std::string::npos) << message;
    EXPECT_EQ(message.find("work_scale,"), message.rfind("work_scale,"))
        << "valid keys listed once: " << message;
  }
}

}  // namespace
}  // namespace conscale
