// Checked CLI-flag parsing (common/parse.hpp): regression lane for the
// strtoull bug where "--rounds abc" parsed as 0 and "--k 1e6" as 1. The
// helpers must reject every malformed token, leave the output untouched
// on failure, and name the flag on stderr (rr_cli's exit-code behavior
// is covered by the ctest bad-flag entries in CMakeLists.txt).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/parse.hpp"

namespace rr {
namespace {

TEST(ParseU64, AcceptsOnlyFullCleanTokens) {
  EXPECT_EQ(parse_u64("0"), std::optional<std::uint64_t>{0});
  EXPECT_EQ(parse_u64("42"), std::optional<std::uint64_t>{42});
  EXPECT_EQ(parse_u64("18446744073709551615"),
            std::optional<std::uint64_t>{~std::uint64_t{0}});
  // The strtoull failure modes, all rejected:
  EXPECT_FALSE(parse_u64("abc"));       // was 0
  EXPECT_FALSE(parse_u64("1e6"));       // was 1
  EXPECT_FALSE(parse_u64("1.5"));       // was 1
  EXPECT_FALSE(parse_u64("12abc"));     // trailing garbage, was 12
  EXPECT_FALSE(parse_u64(""));          // empty
  EXPECT_FALSE(parse_u64(" 7"));        // leading space
  EXPECT_FALSE(parse_u64("7 "));        // trailing space
  EXPECT_FALSE(parse_u64("-1"));        // was 2^64-1
  EXPECT_FALSE(parse_u64("+1"));        // sign not accepted
  EXPECT_FALSE(parse_u64("0x10"));      // hex not accepted
  EXPECT_FALSE(parse_u64("99999999999999999999"));  // overflow, was clamped
}

TEST(ParseFlagU64, FailureLeavesOutputUntouched) {
  std::uint64_t out = 1234;
  EXPECT_FALSE(parse_flag_u64("prog", "--rounds", "abc", out));
  EXPECT_EQ(out, 1234u);
  EXPECT_FALSE(parse_flag_u64("prog", "--rounds", "", out));
  EXPECT_EQ(out, 1234u);
  EXPECT_TRUE(parse_flag_u64("prog", "--rounds", "77", out));
  EXPECT_EQ(out, 77u);
}

TEST(ParseFlagU64Range, EnforcesInclusiveBounds) {
  std::uint64_t out = 5;
  EXPECT_TRUE(parse_flag_u64_range("prog", "--shards", "1", 1, 64, out));
  EXPECT_EQ(out, 1u);
  EXPECT_TRUE(parse_flag_u64_range("prog", "--shards", "64", 1, 64, out));
  EXPECT_EQ(out, 64u);
  EXPECT_FALSE(parse_flag_u64_range("prog", "--shards", "0", 1, 64, out));
  EXPECT_FALSE(parse_flag_u64_range("prog", "--shards", "65", 1, 64, out));
  EXPECT_EQ(out, 64u);  // untouched by the failures
}

TEST(ParseFlagU32, RejectsValuesBeyond32Bits) {
  std::uint32_t out = 9;
  EXPECT_TRUE(parse_flag_u32("prog", "--n", "4294967295", out));
  EXPECT_EQ(out, std::numeric_limits<std::uint32_t>::max());
  EXPECT_FALSE(parse_flag_u32("prog", "--n", "4294967296", out));
  EXPECT_FALSE(parse_flag_u32("prog", "--n", "abc", out));
  EXPECT_EQ(out, std::numeric_limits<std::uint32_t>::max());
}

TEST(ParseFlagEnum, AcceptsExactlyTheListedNames) {
  EXPECT_TRUE(parse_flag_enum("prog", "--policy", "fifo", {"fifo", "qos"}));
  EXPECT_TRUE(parse_flag_enum("prog", "--policy", "qos", {"fifo", "qos"}));
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(parse_flag_enum("prog", "--policy", "FIFO", {"fifo", "qos"}));
  EXPECT_FALSE(parse_flag_enum("prog", "--policy", "", {"fifo", "qos"}));
  EXPECT_FALSE(parse_flag_enum("prog", "--policy", "qos ", {"fifo", "qos"}));
  EXPECT_FALSE(parse_flag_enum("prog", "--policy", "fi", {"fifo", "qos"}));
  (void)::testing::internal::GetCapturedStderr();
}

TEST(ParseFlagEnum, ErrorNamesTheFlagItsValuesAndTheInput) {
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(parse_flag_enum("rr_cli", "--topo", "bogus",
                               {"ring", "grid", "torus"}));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "rr_cli: --topo must be one of ring, grid, torus (got bogus)\n");
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(parse_flag_enum("p", "--x", "b", {"a"}));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "p: --x must be one of a (got b)\n");
}

}  // namespace
}  // namespace rr
