// Doppler and FFT/spectrum tests (src/channel/doppler, src/phy/fft).
#include <cmath>

#include <gtest/gtest.h>

#include "src/channel/doppler.hpp"
#include "src/phy/fft.hpp"
#include "src/phy/ook.hpp"
#include "src/phy/pulse.hpp"
#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"
#include "src/sim/rng.hpp"

namespace mmtag {
namespace {

TEST(Doppler, VibrationSensingRecoversDisplacement) {
  // A 100 um peak-to-peak vibration at 30 Hz — machinery-scale — read
  // through the backscatter phase at 24 GHz.
  class Vibration final : public channel::Mobility {
   public:
    [[nodiscard]] channel::Vec2 position(double t_s) const override {
      return {1.0 + 50e-6 * std::sin(phys::kTwoPi * 30.0 * t_s), 0.0};
    }
  };
  const Vibration vibration;
  const auto phase = channel::backscatter_phase_series(
      vibration, {0.0, 0.0}, 24e9, /*duration_s=*/0.1,
      /*sample_rate_hz=*/3000.0);
  const double recovered =
      channel::displacement_from_phase_m(phase, 24e9);
  EXPECT_NEAR(recovered, 100e-6, 3e-6);
  // And the phase swing is comfortably measurable: ~0.1 rad.
  EXPECT_GT(2.0 * phys::wavenumber_rad_per_m(24e9) * 100e-6, 0.05);
}

TEST(Fft, RoundTrip) {
  auto rng = sim::make_rng(211);
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::vector<phy::Complex> data(256);
  for (auto& x : data) {
    // Imaginary part first: the order GCC gave the two-call constructor.
    const double im = gauss(rng);
    const double re = gauss(rng);
    x = phy::Complex(re, im);
  }
  const auto original = data;
  phy::fft(data);
  phy::fft(data, /*inverse=*/true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(std::abs(data[i] - original[i]), 0.0, 1e-9);
  }
}

TEST(Fft, ParsevalHolds) {
  auto rng = sim::make_rng(212);
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::vector<phy::Complex> data(128);
  double time_energy = 0.0;
  for (auto& x : data) {
    const double im = gauss(rng);  // Drawn first, as above.
    const double re = gauss(rng);
    x = phy::Complex(re, im);
    time_energy += std::norm(x);
  }
  phy::fft(data);
  double freq_energy = 0.0;
  for (const auto& x : data) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / data.size(), time_energy,
              time_energy * 1e-9);
}

TEST(Fft, PureToneLandsInRightBin) {
  constexpr std::size_t kN = 512;
  std::vector<phy::Complex> data(kN);
  constexpr int kBin = 37;
  for (std::size_t i = 0; i < kN; ++i) {
    data[i] = std::polar(1.0, phys::kTwoPi * kBin * i / double(kN));
  }
  phy::fft(data);
  std::size_t peak = 0;
  for (std::size_t i = 1; i < kN; ++i) {
    if (std::abs(data[i]) > std::abs(data[peak])) peak = i;
  }
  EXPECT_EQ(peak, static_cast<std::size_t>(kBin));
}

TEST(Fft, NextPow2) {
  EXPECT_EQ(phy::next_pow2(1), 1u);
  EXPECT_EQ(phy::next_pow2(2), 2u);
  EXPECT_EQ(phy::next_pow2(3), 4u);
  EXPECT_EQ(phy::next_pow2(1000), 1024u);
}

TEST(Spectrum, ToneCentroidAtToneFrequency) {
  constexpr double kFs = 1000.0;
  constexpr double kTone = 125.0;
  std::vector<phy::Complex> samples(1024);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] = std::polar(1.0, phys::kTwoPi * kTone * i / kFs);
  }
  std::vector<double> freqs;
  const auto spectrum = phy::power_spectrum(samples, kFs, freqs);
  std::size_t peak = 0;
  for (std::size_t i = 1; i < spectrum.size(); ++i) {
    if (spectrum[i] > spectrum[peak]) peak = i;
  }
  EXPECT_NEAR(freqs[peak], kTone, kFs / 1024.0 + 1e-9);
}

TEST(Spectrum, ShapedOokBandwidthMatchesPulseTheory) {
  // Close the loop between the pulse and FFT modules: a raised-cosine OOK
  // stream at beta, symbol rate Rs must occupy ~(1 + beta) * Rs of
  // spectrum (two-sided, 99% power).
  auto rng = sim::make_rng(213);
  std::bernoulli_distribution coin(0.5);
  phy::BitVector bits(512);
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = coin(rng);

  const int sps = 8;
  const double beta = 0.5;
  const phy::Waveform shaped = phy::shape_bits(bits, beta, sps);
  // Normalized units: Rs = 1, fs = sps.
  std::vector<double> freqs;
  const auto spectrum = phy::power_spectrum(
      shaped, static_cast<double>(sps), freqs);
  const double measured =
      phy::occupied_bandwidth_hz(spectrum, freqs, 0.99);
  const double predicted = phy::occupied_bandwidth_hz(beta, 1.0);
  EXPECT_NEAR(measured, predicted, 0.35 * predicted);
}

TEST(Spectrum, SingleSampleKeepsEnergy) {
  // Regression: the Hann window is zero at its endpoints, so a one-sample
  // input used to be erased and come back as an all-zero spectrum.
  const std::vector<phy::Complex> one{phy::Complex(2.0, -1.0)};
  std::vector<double> freqs;
  const auto spectrum = phy::power_spectrum(one, 100.0, freqs);
  ASSERT_EQ(spectrum.size(), 1u);
  EXPECT_DOUBLE_EQ(spectrum[0], 1.0);  // Peak-normalized, but non-zero.
}

TEST(Spectrum, TwoSamplesKeepEnergy) {
  // Same endpoint hazard at m == 2: both samples sit on Hann nulls.
  const std::vector<phy::Complex> two{phy::Complex(1.0, 0.0),
                                      phy::Complex(1.0, 0.0)};
  std::vector<double> freqs;
  const auto spectrum = phy::power_spectrum(two, 10.0, freqs);
  double total = 0.0;
  for (const double s : spectrum) total += s;
  EXPECT_GT(total, 0.0);
  // A constant pair is pure DC: the 0 Hz bin must carry the peak.
  std::size_t peak = 0;
  for (std::size_t i = 1; i < spectrum.size(); ++i) {
    if (spectrum[i] > spectrum[peak]) peak = i;
  }
  EXPECT_DOUBLE_EQ(freqs[peak], 0.0);
}

TEST(Spectrum, OccupiedBandwidthClippedAtEdgeCountsRealBins) {
  // Regression: a window clipped at the spectrum edge only accumulates on
  // one side, but the old 2*radius+1 formula billed both — reporting more
  // bandwidth than the whole array spans.
  const std::vector<double> spectrum = {1.0, 0.05, 0.05, 0.05};
  const std::vector<double> freqs = {-2.0, -1.0, 0.0, 1.0};
  const double obw = phy::occupied_bandwidth_hz(spectrum, freqs, 0.99);
  // All four bins accumulated, 1 Hz apart: 4 Hz, and never more than the
  // array's 4 Hz span (the old formula returned 7 Hz here).
  EXPECT_DOUBLE_EQ(obw, 4.0);
}

TEST(Spectrum, OccupiedBandwidthInteriorUnchangedByEdgeFix) {
  // An interior window grows both sides per step, where bins_added ==
  // 2*radius+1: the fix must not change this case.
  const std::vector<double> spectrum = {0.01, 0.1, 1.0, 0.1, 0.01};
  const std::vector<double> freqs = {-2.0, -1.0, 0.0, 1.0, 2.0};
  const double obw = phy::occupied_bandwidth_hz(spectrum, freqs, 0.95);
  EXPECT_DOUBLE_EQ(obw, 3.0);  // Centre bin + one on each side.
}

TEST(Spectrum, SquareOokIsWiderThanShaped) {
  auto rng = sim::make_rng(214);
  std::bernoulli_distribution coin(0.5);
  phy::BitVector bits(512);
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = coin(rng);

  const int sps = 8;
  const phy::OokModulator square(sps);
  const phy::Waveform square_wave = square.modulate(bits);
  const phy::Waveform shaped = phy::shape_bits(bits, 0.35, sps);

  std::vector<double> f1, f2;
  const auto s1 = phy::power_spectrum(square_wave, sps, f1);
  const auto s2 = phy::power_spectrum(shaped, sps, f2);
  EXPECT_GT(phy::occupied_bandwidth_hz(s1, f1, 0.99),
            phy::occupied_bandwidth_hz(s2, f2, 0.99));
}

}  // namespace
}  // namespace mmtag
