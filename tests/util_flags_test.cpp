#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace geomcast::util {
namespace {

Flags make_flags(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsSyntax) {
  const auto flags = make_flags({"--peers=500"});
  EXPECT_EQ(flags.get_int("peers", 0), 500);
}

TEST(FlagsTest, SpaceSyntax) {
  const auto flags = make_flags({"--peers", "250"});
  EXPECT_EQ(flags.get_int("peers", 0), 250);
}

TEST(FlagsTest, FallbackWhenMissing) {
  const auto flags = make_flags({});
  EXPECT_EQ(flags.get_int("peers", 1000), 1000);
  EXPECT_EQ(flags.get_string("mode", "fast"), "fast");
  EXPECT_DOUBLE_EQ(flags.get_double("ratio", 0.5), 0.5);
  EXPECT_TRUE(flags.get_bool("verbose", true));
}

TEST(FlagsTest, BareBooleanFlag) {
  const auto flags = make_flags({"--verbose"});
  EXPECT_TRUE(flags.get_bool("verbose", false));
}

TEST(FlagsTest, ExplicitBooleanValues) {
  EXPECT_TRUE(make_flags({"--x=true"}).get_bool("x", false));
  EXPECT_TRUE(make_flags({"--x=1"}).get_bool("x", false));
  EXPECT_TRUE(make_flags({"--x=yes"}).get_bool("x", false));
  EXPECT_FALSE(make_flags({"--x=false"}).get_bool("x", true));
  EXPECT_FALSE(make_flags({"--x=0"}).get_bool("x", true));
  EXPECT_FALSE(make_flags({"--x=off"}).get_bool("x", true));
}

TEST(FlagsTest, MalformedIntThrows) {
  const auto flags = make_flags({"--peers=abc"});
  EXPECT_THROW((void)flags.get_int("peers", 0), std::invalid_argument);
}

TEST(FlagsTest, MalformedBoolThrows) {
  const auto flags = make_flags({"--x=maybe"});
  EXPECT_THROW((void)flags.get_bool("x", false), std::invalid_argument);
}

TEST(FlagsTest, DoubleParsing) {
  const auto flags = make_flags({"--ratio=0.75"});
  EXPECT_DOUBLE_EQ(flags.get_double("ratio", 0.0), 0.75);
}

TEST(FlagsTest, IntList) {
  const auto flags = make_flags({"--dims=2,3,5"});
  const auto dims = flags.get_int_list("dims", {});
  ASSERT_EQ(dims.size(), 3u);
  EXPECT_EQ(dims[0], 2);
  EXPECT_EQ(dims[1], 3);
  EXPECT_EQ(dims[2], 5);
}

TEST(FlagsTest, IntListFallback) {
  const auto flags = make_flags({});
  const auto dims = flags.get_int_list("dims", {7, 8});
  ASSERT_EQ(dims.size(), 2u);
  EXPECT_EQ(dims[0], 7);
}

TEST(FlagsTest, PositionalArgumentsCollected) {
  const auto flags = make_flags({"input.txt", "--mode=x", "output.txt"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.txt");
  EXPECT_EQ(flags.positional()[1], "output.txt");
}

TEST(FlagsTest, HasDetectsPresence) {
  const auto flags = make_flags({"--present=1"});
  EXPECT_TRUE(flags.has("present"));
  EXPECT_FALSE(flags.has("absent"));
}

TEST(FlagsTest, LastValueWins) {
  const auto flags = make_flags({"--n=1", "--n=2"});
  EXPECT_EQ(flags.get_int("n", 0), 2);
}

TEST(FlagsTest, RejectUnreadNamesFlagsNeverLookedUp) {
  const auto flags = make_flags({"--peers=5", "--simcore", "--typo", "3"});
  EXPECT_EQ(flags.get_int("peers", 0), 5);
  try {
    flags.reject_unread();
    FAIL() << "unread flags were accepted";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("--simcore"), std::string::npos) << message;
    EXPECT_NE(message.find("--typo"), std::string::npos) << message;
    EXPECT_EQ(message.find("--peers"), std::string::npos) << message;
  }
}

TEST(FlagsTest, RejectUnreadAcceptsEveryLookupKind) {
  // has() counts as reading a flag, and so does a lookup whose value is
  // never used; flags that were never passed are not an error.
  const auto flags = make_flags({"--a=1", "--b=x", "--c=0.5", "--d", "--e=1,2", "--f=3"});
  (void)flags.get_int("a", 0);
  (void)flags.get_string("b", "");
  (void)flags.get_double("c", 0.0);
  (void)flags.get_bool("d", false);
  (void)flags.get_int_list("e", {});
  (void)flags.has("f");
  (void)flags.get_int("absent", 0);
  EXPECT_NO_THROW(flags.reject_unread());
  EXPECT_NO_THROW(make_flags({}).reject_unread());
}

}  // namespace
}  // namespace geomcast::util
