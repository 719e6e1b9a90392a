#include <gtest/gtest.h>

#include "common/flags.h"

namespace ldp {
namespace {

Flags ParseArgs(std::vector<std::string> args,
                std::vector<std::string> booleans = {}) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;
  storage = std::move(args);
  argv.push_back(const_cast<char*>("prog"));
  for (auto& arg : storage) argv.push_back(arg.data());
  auto flags = Flags::Parse(static_cast<int>(argv.size()), argv.data(),
                            booleans);
  EXPECT_TRUE(flags.ok());
  return std::move(*flags);
}

TEST(Flags, KeyValueForms) {
  Flags flags = ParseArgs({"--rate=500", "--name", "b-root", "file.bin"});
  EXPECT_EQ(flags.GetInt("rate", 0).value(), 500);
  EXPECT_EQ(flags.GetString("name", ""), "b-root");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "file.bin");
}

TEST(Flags, BooleanDoesNotEatPositional) {
  Flags flags = ParseArgs({"--verbose", "input.txt"}, {"verbose"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "input.txt");
}

TEST(Flags, UndeclaredFlagBeforePositionalConsumesIt) {
  Flags flags = ParseArgs({"--mode", "fast"});
  EXPECT_EQ(flags.GetString("mode", ""), "fast");
  EXPECT_TRUE(flags.positional().empty());
}

TEST(Flags, HelpIsAlwaysBoolean) {
  Flags flags = ParseArgs({"--help", "cmd"});
  EXPECT_TRUE(flags.GetBool("help", false));
  ASSERT_EQ(flags.positional().size(), 1u);
}

TEST(Flags, TrailingBooleanWithoutValue) {
  Flags flags = ParseArgs({"--fast"});
  EXPECT_TRUE(flags.GetBool("fast", false));
  EXPECT_FALSE(flags.GetBool("slow", false));
}

TEST(Flags, TypedGettersValidate) {
  Flags flags = ParseArgs({"--n=abc", "--f=1.5"});
  EXPECT_FALSE(flags.GetInt("n", 0).ok());
  EXPECT_DOUBLE_EQ(flags.GetDouble("f", 0).value(), 1.5);
  EXPECT_EQ(flags.GetInt("missing", 42).value(), 42);
}

TEST(Flags, IntInRangeNamesTheFlag) {
  Flags flags = ParseArgs(
      {"--in=7", "--low=0", "--high=11", "--bad=7x", "--edge=10"});
  EXPECT_EQ(flags.GetIntInRange("in", 5, 1, 10).value(), 7);
  EXPECT_EQ(flags.GetIntInRange("edge", 5, 1, 10).value(), 10);
  EXPECT_EQ(flags.GetIntInRange("absent", 5, 1, 10).value(), 5);
  for (const char* key : {"low", "high", "bad"}) {
    auto value = flags.GetIntInRange(key, 5, 1, 10);
    ASSERT_FALSE(value.ok()) << key;
    EXPECT_NE(value.error().message().find(std::string("--") + key),
              std::string::npos)
        << value.error().ToString();
  }
  EXPECT_EQ(flags.GetIntInRange("low", 5, 1, 10).error().message(),
            "--low must be in [1, 10]");
}

TEST(Flags, DoubleInRangeRefusesNonFiniteAndOutOfRange) {
  Flags flags = ParseArgs({"--half=0.5", "--zero=0", "--one=1", "--big=1.5",
                           "--neg=-0.1", "--nan=nan", "--inf=inf",
                           "--minf=-inf", "--bad=0.5x"});
  EXPECT_DOUBLE_EQ(flags.GetDoubleInRange("half", 1, 0, 1).value(), 0.5);
  EXPECT_DOUBLE_EQ(flags.GetDoubleInRange("zero", 1, 0, 1).value(), 0);
  EXPECT_DOUBLE_EQ(flags.GetDoubleInRange("one", 0, 0, 1).value(), 1);
  EXPECT_DOUBLE_EQ(flags.GetDoubleInRange("absent", 0.25, 0, 1).value(),
                   0.25);
  // An open lower bound refuses the bound itself.
  EXPECT_FALSE(flags.GetDoubleInRange("zero", 1, 0, 10, true).ok());
  EXPECT_DOUBLE_EQ(flags.GetDoubleInRange("half", 1, 0, 10, true).value(),
                   0.5);
  for (const char* key : {"big", "neg", "nan", "inf", "minf", "bad"}) {
    auto value = flags.GetDoubleInRange(key, 0.5, 0, 1);
    ASSERT_FALSE(value.ok()) << key;
    EXPECT_NE(value.error().message().find(std::string("--") + key),
              std::string::npos)
        << value.error().ToString();
  }
  EXPECT_EQ(flags.GetDoubleInRange("big", 0.5, 0, 1).error().message(),
            "--big must be a finite number in [0, 1]");
  EXPECT_EQ(flags.GetDoubleInRange("zero", 1, 0, 10, true).error().message(),
            "--zero must be a finite number in (0, 10]");
}

TEST(Flags, RequireKnownCatchesTypos) {
  Flags flags = ParseArgs({"--rate=5", "--typo=1"});
  EXPECT_TRUE(flags.RequireKnown({"rate", "typo"}).ok());
  EXPECT_FALSE(flags.RequireKnown({"rate"}).ok());
}

}  // namespace
}  // namespace ldp
