// OOK modem tests (src/phy/ook, src/phy/waveform).
#include "src/phy/ook.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "src/phy/waveform.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::phy {
namespace {

BitVector random_bits(std::size_t n, sim::Rng& rng) {
  std::bernoulli_distribution coin(0.5);
  BitVector bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = coin(rng);
  return bits;
}

TEST(OokModulator, PaperPolarity) {
  // '0' -> reflect (high amplitude); '1' -> absorb (residual).
  const OokModulator mod(4, 60.0);
  const Waveform wave = mod.modulate({false, true});
  ASSERT_EQ(wave.size(), 8u);
  EXPECT_NEAR(std::abs(wave[0]), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(wave[4]), 1e-3, 1e-6);  // -60 dB residual.
}

TEST(OokModulator, FiniteDepthLeavesResidual) {
  const OokModulator mod(1, 11.0);  // ~ the tag's real contrast.
  const Waveform wave = mod.modulate({true});
  EXPECT_NEAR(std::abs(wave[0]), std::pow(10.0, -11.0 / 20.0), 1e-9);
}

TEST(OokRoundTrip, NoiselessPerfect) {
  auto rng = sim::make_rng(1);
  const BitVector bits = random_bits(512, rng);
  const OokModulator mod(8);
  const OokDemodulator demod(8);
  const Waveform wave = mod.modulate(bits);
  EXPECT_EQ(hamming_distance(bits, demod.demodulate(wave)), 0u);
}

TEST(OokRoundTrip, HighSnrPerfect) {
  auto rng = sim::make_rng(2);
  const BitVector bits = random_bits(512, rng);
  const OokModulator mod(8);
  const OokDemodulator demod(8);
  Waveform wave = mod.modulate(bits);
  add_awgn(wave, noise_power_for_snr(mean_power(wave), 25.0), rng);
  EXPECT_EQ(hamming_distance(bits, demod.demodulate(wave)), 0u);
}

TEST(OokRoundTrip, LowSnrProducesErrorsButNotGarbage) {
  auto rng = sim::make_rng(3);
  const BitVector bits = random_bits(4096, rng);
  const OokModulator mod(8);
  const OokDemodulator demod(8);
  Waveform wave = mod.modulate(bits);
  // Per-sample SNR of -6 dB; the 8-sample matched filter brings the symbol
  // SNR to ~3 dB, squarely in the error-producing region.
  add_awgn(wave, noise_power_for_snr(mean_power(wave), -6.0), rng);
  const std::size_t errors = hamming_distance(bits, demod.demodulate(wave));
  EXPECT_GT(errors, 0u);
  EXPECT_LT(errors, bits.size() / 3);  // Far better than guessing.
}

TEST(OokDemodulator, IgnoresTrailingPartialSymbol) {
  const OokDemodulator demod(8);
  const Waveform partial(12, Complex(1.0, 0.0));  // 1.5 symbols.
  EXPECT_EQ(demod.demodulate(partial).size(), 1u);
}

TEST(Hamming, CountsMismatchesAndLengthDelta) {
  EXPECT_EQ(hamming_distance({1, 0, 1}, {1, 0, 1}), 0u);
  EXPECT_EQ(hamming_distance({1, 0, 1}, {0, 0, 1}), 1u);
  EXPECT_EQ(hamming_distance({1, 0}, {1, 0, 1, 1}), 2u);
}

TEST(Waveform, MeanPower) {
  const Waveform wave = {{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  EXPECT_NEAR(mean_power(wave), (1.0 + 1.0 + 2.0) / 3.0, 1e-12);
  const Waveform doubled = {{2.0, 0.0}, {0.0, 2.0}, {2.0, 2.0}};
  EXPECT_NEAR(mean_power(doubled), 4.0 * 4.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(mean_power(Waveform{}), 0.0);
}

TEST(Waveform, AwgnPowerIsCalibrated) {
  auto rng = sim::make_rng(4);
  Waveform wave(200000, Complex(0.0, 0.0));
  add_awgn(wave, 2.0, rng);
  EXPECT_NEAR(mean_power(wave), 2.0, 0.05);
}

// Property: round trip survives any samples-per-symbol choice.
class SpsRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(SpsRoundTripTest, RoundTrips) {
  const int sps = GetParam();
  auto rng = sim::make_rng(100 + static_cast<unsigned>(sps));
  const BitVector bits = random_bits(256, rng);
  const OokModulator mod(sps);
  const OokDemodulator demod(sps);
  Waveform wave = mod.modulate(bits);
  add_awgn(wave, noise_power_for_snr(mean_power(wave), 30.0), rng);
  EXPECT_EQ(hamming_distance(bits, demod.demodulate(wave)), 0u);
}

INSTANTIATE_TEST_SUITE_P(SamplesPerSymbol, SpsRoundTripTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

}  // namespace
}  // namespace mmtag::phy
