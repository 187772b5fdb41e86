// Complex-baseband sample buffers and AWGN.
//
// The waveform layer lets the benches validate, at sample level, the
// shortcut the paper takes analytically: "ASK modulation requires SNR of
// 7 dB to achieve BER of 1e-3" (Sec. 8). Signals are equivalent-baseband
// complex samples at the symbol-processing rate.
#pragma once

#include <cassert>
#include <cmath>
#include <complex>
#include <span>
#include <vector>

#include "src/phy/normal.hpp"

namespace mmtag::phy {

using Complex = std::complex<double>;
using Waveform = std::vector<Complex>;

/// Mean sample power of `samples` (sum |x|^2 / N). Empty input returns 0.
[[nodiscard]] double mean_power(std::span<const Complex> samples);

/// Scale every sample by the real factor `gain`.
void scale(Waveform& samples, double gain);

/// Apply a constant complex channel coefficient.
void apply_channel(Waveform& samples, Complex coefficient);

/// Add circularly-symmetric complex Gaussian noise of total power
/// `noise_power` (variance split evenly over I and Q) in place, one
/// normal_pairs pair per sample: I takes the pair's second value and Q
/// its first, the order in which GCC evaluated the former
/// Complex(gauss(rng), gauss(rng)). `rng` is any engine normal_pairs takes.
template <typename Engine>
void add_awgn(Waveform& samples, double noise_power, Engine& rng) {
  assert(noise_power >= 0.0);
  if (noise_power == 0.0) return;
  for_each_normal_pair(rng, 0.0, std::sqrt(noise_power / 2.0),
                       samples.size(),
                       [&](std::size_t i, double first, double second) {
                         samples[i] += Complex(second, first);
                       });
}

/// Noise power that yields `snr_db` against a signal of power
/// `signal_power`.
[[nodiscard]] double noise_power_for_snr(double signal_power, double snr_db);

}  // namespace mmtag::phy
