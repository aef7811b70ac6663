// Tests for the key=value Options parser used by the pmsbsim tool.
#include <gtest/gtest.h>

#include <fstream>

#include "experiments/options.hpp"

using namespace pmsb::experiments;

namespace {
Options parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Options::from_args(static_cast<int>(argv.size()), argv.data());
}

std::string write_temp_config(const std::string& body) {
  const std::string path = std::string(::testing::TempDir()) + "/opts.conf";
  std::ofstream out(path);
  out << body;
  return path;
}
}  // namespace

TEST(Options, ParsesKeyValues) {
  const auto o = parse({"scheme=pmsb", "load=0.7", "flows=42"});
  EXPECT_EQ(o.get("scheme"), "pmsb");
  EXPECT_DOUBLE_EQ(o.get_double("load", 0), 0.7);
  EXPECT_EQ(o.get_int("flows", 0), 42);
}

TEST(Options, FallbacksWhenAbsent) {
  const auto o = parse({});
  EXPECT_EQ(o.get("x", "def"), "def");
  EXPECT_EQ(o.get_int("x", 7), 7);
  EXPECT_DOUBLE_EQ(o.get_double("x", 1.5), 1.5);
  EXPECT_TRUE(o.get_bool("x", true));
  EXPECT_FALSE(o.has("x"));
}

TEST(Options, LaterTokensOverride) {
  const auto o = parse({"a=1", "a=2"});
  EXPECT_EQ(o.get_int("a", 0), 2);
}

TEST(Options, BooleanForms) {
  const auto o = parse({"t1=true", "t2=YES", "t3=1", "f1=off", "f2=0"});
  EXPECT_TRUE(o.get_bool("t1", false));
  EXPECT_TRUE(o.get_bool("t2", false));
  EXPECT_TRUE(o.get_bool("t3", false));
  EXPECT_FALSE(o.get_bool("f1", true));
  EXPECT_FALSE(o.get_bool("f2", true));
  EXPECT_THROW(static_cast<void>(parse({"b=maybe"}).get_bool("b", false)), std::invalid_argument);
}

TEST(Options, DoubleList) {
  const auto o = parse({"weights=1,2.5, 4"});
  const auto v = o.get_double_list("weights");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 2.5);
  EXPECT_DOUBLE_EQ(v[2], 4.0);
  EXPECT_TRUE(o.get_double_list("missing").empty());
}

TEST(Options, DoubleListRejectsTrailingGarbage) {
  EXPECT_THROW(parse({"w=1,2x"}).get_double_list("w"), std::invalid_argument);
  EXPECT_THROW(parse({"w=abc"}).get_double_list("w"), std::invalid_argument);
  EXPECT_THROW(parse({"w=1e999"}).get_double_list("w"), std::invalid_argument);
  try {
    (void)parse({"flows_per_queue=1,2x"}).get_double_list("flows_per_queue");
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'flows_per_queue'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'2x'"), std::string::npos) << msg;
  }
}

TEST(Options, MalformedTokensThrow) {
  EXPECT_THROW(parse({"novalue"}), std::invalid_argument);
  EXPECT_THROW(parse({"=x"}), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(parse({"n=12x"}).get_int("n", 0)), std::invalid_argument);
}

TEST(Options, ConfigFileWithCommentsAndOverride) {
  const auto path = write_temp_config(
      "# experiment\n"
      "scheme = tcn\n"
      "load=0.9   # high load\n"
      "\n"
      "flows=100\n");
  std::vector<const char*> argv = {"prog", "--config", path.c_str(), "scheme=pmsb"};
  const auto o = Options::from_args(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(o.get("scheme"), "pmsb");  // CLI wins
  EXPECT_DOUBLE_EQ(o.get_double("load", 0), 0.9);
  EXPECT_EQ(o.get_int("flows", 0), 100);
}

TEST(Options, MissingConfigFileThrows) {
  std::vector<const char*> argv = {"prog", "--config", "/no/such/file"};
  EXPECT_THROW(Options::from_args(3, argv.data()), std::invalid_argument);
  std::vector<const char*> argv2 = {"prog", "--config"};
  EXPECT_THROW(Options::from_args(2, argv2.data()), std::invalid_argument);
}

TEST(Options, ValidateKeysAcceptsKnownKeys) {
  const auto o = parse({"scheme=pmsb", "load=0.9"});
  EXPECT_NO_THROW(o.validate_keys({"scheme", "load", "flows"}));
}

TEST(Options, ValidateKeysSuggestsNearMiss) {
  const auto o = parse({"trace_flow=1"});
  try {
    o.validate_keys({"trace_flows", "profile"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown option 'trace_flow'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean 'trace_flows'?"), std::string::npos) << msg;
  }
}

TEST(Options, ValidateKeysOmitsSuggestionWhenNothingIsClose) {
  const auto o = parse({"zzzzqqqq=1"});
  try {
    o.validate_keys({"scheme", "load"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown option 'zzzzqqqq'"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("did you mean"), std::string::npos) << msg;
  }
}

TEST(Options, ClosestKeyRanksByEditDistance) {
  EXPECT_EQ(Options::closest_key("scheme", {"scheme", "schema"}), "scheme");
  EXPECT_EQ(Options::closest_key("sceme", {"scheme", "load"}), "scheme");
  EXPECT_EQ(Options::closest_key("xyzzy", {"scheme", "load"}), "");
}
