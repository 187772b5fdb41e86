// Symbol-timing recovery tests (src/phy/timing).
#include "src/phy/timing.hpp"

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

/// A modulated waveform shifted by `shift` samples (leading noise-level
/// padding).
Waveform shifted_waveform(const BitVector& bits, int sps, int shift) {
  const OokModulator mod(sps);
  const Waveform body = mod.modulate(bits);
  Waveform out(static_cast<std::size_t>(shift), Complex(0.0, 0.0));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

TEST(Timing, AlignedInputEstimatesZero) {
  auto rng = sim::make_rng(221);
  const BitVector bits = random_bits(256, rng);
  const Waveform wave = OokModulator(8).modulate(bits);
  const TimingEstimate estimate = estimate_symbol_timing(wave, 8);
  EXPECT_EQ(estimate.offset_samples, 0);
  EXPECT_GT(estimate.confidence, 2.0);
}

TEST(Timing, TooShortInputHasNoConfidence) {
  const Waveform tiny(7, Complex(1.0, 0.0));
  const TimingEstimate estimate = estimate_symbol_timing(tiny, 8);
  EXPECT_DOUBLE_EQ(estimate.confidence, 0.0);
}

TEST(Timing, UnmodulatedCarrierGivesLowConfidence) {
  // A constant carrier has the same (zero) statistic variance at every
  // offset: no timing information.
  auto rng = sim::make_rng(222);
  Waveform carrier(512, Complex(1.0, 0.0));
  add_awgn(carrier, 1e-4, rng);
  const TimingEstimate estimate = estimate_symbol_timing(carrier, 8);
  EXPECT_LT(estimate.confidence, 2.0);
}

TEST(Timing, DemodulateWithTimingFixesMisalignment) {
  auto rng = sim::make_rng(223);
  const int sps = 8;
  const BitVector bits = random_bits(512, rng);
  Waveform wave = shifted_waveform(bits, sps, 3);
  add_awgn(wave, noise_power_for_snr(mean_power(wave), 22.0), rng);

  // Naive demodulation with the wrong phase makes many errors...
  const OokDemodulator naive(sps);
  const std::size_t naive_errors =
      hamming_distance(bits, naive.demodulate(wave));
  // ... timing-recovered demodulation fixes it (up to the leading pad
  // symbol, handled by comparing the tail).
  BitVector recovered = demodulate_with_timing(wave, sps);
  // Drop the pad symbol produced by the 3-sample lead-in, if any.
  std::size_t best_errors = bits.size();
  for (std::size_t skip = 0; skip <= 1 && skip < recovered.size(); ++skip) {
    BitVector candidate(recovered.begin() +
                            static_cast<std::ptrdiff_t>(skip),
                        recovered.end());
    candidate.resize(bits.size(), !bits.back());
    best_errors = std::min(best_errors, hamming_distance(bits, candidate));
  }
  EXPECT_LT(best_errors, naive_errors / 4 + 2);
  EXPECT_LT(best_errors, 4u);
}

// Property: the estimator recovers any intra-symbol shift.
class TimingShiftTest : public ::testing::TestWithParam<int> {};

TEST_P(TimingShiftTest, RecoversShift) {
  const int shift = GetParam();
  auto rng = sim::make_rng(224 + static_cast<unsigned>(shift));
  const int sps = 8;
  const BitVector bits = random_bits(384, rng);
  Waveform wave = shifted_waveform(bits, sps, shift);
  add_awgn(wave, noise_power_for_snr(mean_power(wave), 18.0), rng);
  const TimingEstimate estimate = estimate_symbol_timing(wave, sps);
  EXPECT_EQ(estimate.offset_samples, shift % sps);
  EXPECT_GT(estimate.confidence, 1.5);
}

INSTANTIATE_TEST_SUITE_P(Shifts, TimingShiftTest,
                         ::testing::Values(0, 1, 2, 3, 5, 7));

}  // namespace
}  // namespace mmtag::phy
