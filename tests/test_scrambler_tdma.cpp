// Scrambler tests (src/phy/scrambler).
#include <gtest/gtest.h>

#include "src/phy/scrambler.hpp"
#include "src/sim/rng.hpp"

namespace mmtag {
namespace {

using phy::BitVector;
using phy::Scrambler;

TEST(Scrambler, ScrambleDescrambleRoundTrip) {
  auto rng = sim::make_rng(161);
  std::bernoulli_distribution coin(0.5);
  BitVector bits(2048);
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = coin(rng);

  Scrambler tx(0x1234);
  Scrambler rx(0x1234);
  const BitVector descrambled = rx.descramble(tx.scramble(bits));
  EXPECT_EQ(descrambled, bits);
}

TEST(Scrambler, WrongSeedGivesGarbage) {
  BitVector bits(512, true);
  Scrambler tx(0x1234);
  Scrambler rx(0x4321);
  const BitVector out = rx.descramble(tx.scramble(bits));
  const std::size_t errors = phy::hamming_distance(out, bits);
  EXPECT_GT(errors, 128u);  // Way off.
}

TEST(Scrambler, BreaksLongRuns) {
  // The whole point: an all-ones payload scrambles to something with no
  // pathological run (PRBS-15 guarantees <= 15 identical outputs in a
  // row, and in practice far fewer here).
  const BitVector monotone(4096, true);
  EXPECT_EQ(Scrambler::longest_run(monotone), 4096u);
  Scrambler scrambler;
  const BitVector scrambled = scrambler.scramble(monotone);
  EXPECT_LE(Scrambler::longest_run(scrambled), 16u);
}

TEST(Scrambler, OutputIsBalanced) {
  Scrambler scrambler;
  const BitVector zeros(32767, false);  // One full PRBS period.
  const BitVector prbs = scrambler.scramble(zeros);
  std::size_t ones = 0;
  for (const bool bit : prbs) {
    if (bit) ++ones;
  }
  // PRBS-15 has 2^14 ones in a period.
  EXPECT_EQ(ones, 16384u);
}

TEST(Scrambler, ResetReproducesSequence) {
  Scrambler scrambler(0x7ABC);
  BitVector first;
  for (int i = 0; i < 64; ++i) first.push_back(scrambler.next_bit());
  scrambler.reset(0x7ABC);
  BitVector second;
  for (int i = 0; i < 64; ++i) second.push_back(scrambler.next_bit());
  EXPECT_EQ(first, second);
}

TEST(Scrambler, LongestRunHelper) {
  EXPECT_EQ(Scrambler::longest_run({}), 0u);
  EXPECT_EQ(Scrambler::longest_run({true}), 1u);
  EXPECT_EQ(Scrambler::longest_run({true, true, false, false, false, true}),
            3u);
}

}  // namespace
}  // namespace mmtag
