// Manchester line-code tests (src/phy/line_code).
#include "src/phy/line_code.hpp"

#include <gtest/gtest.h>

#include "src/sim/rng.hpp"

namespace mmtag::phy {
namespace {

TEST(Manchester, EncodesIeeeConvention) {
  const BitVector chips = manchester_encode({true, false});
  EXPECT_EQ(chips, (BitVector{true, false, false, true}));
}

TEST(Manchester, RoundTrip) {
  auto rng = sim::make_rng(11);
  std::bernoulli_distribution coin(0.5);
  BitVector bits(777);
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = coin(rng);
  std::size_t violations = 123;
  const BitVector decoded =
      manchester_decode_lenient(manchester_encode(bits), violations);
  EXPECT_EQ(violations, 0u);
  EXPECT_EQ(decoded, bits);
}

TEST(Manchester, GuaranteesTransitionEveryBit) {
  // The dc-balance property the energy model and the blind threshold rely
  // on: every chip pair contains one high and one low.
  const BitVector chips = manchester_encode(BitVector(64, true));
  for (std::size_t i = 0; i < chips.size(); i += 2) {
    EXPECT_NE(chips[i], chips[i + 1]);
  }
}

TEST(ManchesterLenient, CountsViolations) {
  // {1,0} ok, {1,1} violation, {0,1} ok -> 1 violation, bits {1,1,0}.
  std::size_t violations = 0;
  const BitVector bits = manchester_decode_lenient(
      {true, false, true, true, false, true}, violations);
  EXPECT_EQ(violations, 1u);
  EXPECT_EQ(bits, (BitVector{true, true, false}));
}

TEST(ManchesterLenient, OddTailCountsAsViolation) {
  std::size_t violations = 0;
  const BitVector bits =
      manchester_decode_lenient({true, false, true}, violations);
  EXPECT_EQ(violations, 1u);
  EXPECT_EQ(bits.size(), 1u);
}

TEST(ManchesterLenient, CleanInputHasNoViolations) {
  std::size_t violations = 123;
  const BitVector source{true, false, true};
  const BitVector decoded =
      manchester_decode_lenient(manchester_encode(source), violations);
  EXPECT_EQ(violations, 0u);
  EXPECT_EQ(decoded, source);
}

}  // namespace
}  // namespace mmtag::phy
