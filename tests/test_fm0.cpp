// FM0 line-code tests (src/phy/fm0) — the encoder ablation A5 measures.
#include "src/phy/fm0.hpp"

#include <gtest/gtest.h>

#include "src/sim/rng.hpp"

namespace mmtag::phy {
namespace {

TEST(Fm0, EncodesKnownPattern) {
  // From idle-high: first bit always starts with an inversion (to low).
  // '1' holds its level across the bit, '0' flips mid-bit.
  const BitVector chips = fm0_encode({true, false});
  ASSERT_EQ(chips.size(), 4u);
  EXPECT_EQ(chips[0], false);  // Boundary inversion from idle high.
  EXPECT_EQ(chips[1], false);  // '1': no mid-bit flip.
  EXPECT_EQ(chips[2], true);   // Boundary inversion again.
  EXPECT_EQ(chips[3], false);  // '0': mid-bit flip.
}

// The FM0 rules chip by chip: chip 2i inverts the level before it (idle
// high before the first bit), and chip 2i+1 equals chip 2i exactly when
// bit i is '1'.
void expect_fm0_rules(const BitVector& bits) {
  const BitVector chips = fm0_encode(bits);
  ASSERT_EQ(chips.size(), 2 * bits.size());
  bool previous = true;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    EXPECT_NE(chips[2 * i], previous) << "bit " << i;
    EXPECT_EQ(chips[2 * i + 1] == chips[2 * i], bits[i]) << "bit " << i;
    previous = chips[2 * i + 1];
  }
}

TEST(Fm0, EveryChipFollowsTheRules) {
  auto rng = sim::make_rng(81);
  std::bernoulli_distribution coin(0.5);
  BitVector random_bits(513);
  for (std::size_t i = 0; i < random_bits.size(); ++i) {
    random_bits[i] = coin(rng);
  }
  expect_fm0_rules(random_bits);
  expect_fm0_rules({});

  // Adversarial patterns: all zeros, all ones, alternating, every third
  // bit, and a quadratic-residue mix.
  for (int pattern = 0; pattern < 5; ++pattern) {
    BitVector bits;
    for (int i = 0; i < 97; ++i) {
      switch (pattern) {
        case 0: bits.push_back(false); break;
        case 1: bits.push_back(true); break;
        case 2: bits.push_back(i % 2 == 0); break;
        case 3: bits.push_back(i % 3 == 0); break;
        default: bits.push_back((i * i) % 5 < 2); break;
      }
    }
    SCOPED_TRACE(pattern);
    expect_fm0_rules(bits);
  }
}

TEST(Fm0, BoundaryInversionAlwaysPresent) {
  // Even an all-ones stream (which never flips mid-bit) inverts at every
  // bit boundary: no run is longer than 2 chips.
  const BitVector chips = fm0_encode(BitVector(64, true));
  int run = 1;
  for (std::size_t i = 1; i < chips.size(); ++i) {
    run = chips[i] == chips[i - 1] ? run + 1 : 1;
    EXPECT_LE(run, 2);
  }
}

}  // namespace
}  // namespace mmtag::phy
