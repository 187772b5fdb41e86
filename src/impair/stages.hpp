// The four impairment stages (DESIGN.md Sec. 16, docs/IMPAIRMENTS.md).
//
// A stage mutates a complex-baseband waveform in place; apply() always
// applies. Whether a stage runs at all is ImpairmentChain's decision,
// made from the stage's `enabled` bit, so a stage never consults it.
// Each stage precomputes its derived constants in the constructor (the
// only place transcendentals like tan/exp10 run for the deterministic
// stages). The contracts that make a pipeline of stages deterministic:
//
//   * Fixed stream ordinals. Every stage owns a fixed ordinal (PA = 0,
//     phase noise = 1, IQ = 2, ADC = 3), and a stochastic stage draws
//     randomness only from sim::Rng(sim::derive_seed(seed, ordinal)), in
//     phy::normal_pairs pairs. Toggling a stage on or off therefore
//     never shifts another stage's stream.
//   * Seed-pure application. apply() is const and uses no state other
//     than the ctor parameters and the passed seed, so the same
//     (waveform, seed) pair always yields the same bits regardless of
//     thread, call order, or how many other entities were processed.
//     Deterministic stages ignore the seed.
//   * Kernel-exact arithmetic. The per-sample inner loops run through
//     kern::dispatch() kernels restricted to exactly-rounded IEEE ops;
//     transcendental evaluation (cos/sin for phase-noise coefficients)
//     happens in scalar stage code outside the kernels. Output is
//     bit-identical across the scalar and AVX2 backends.
//
// evm_squared() is a stage's small-signal error-vector-magnitude-squared
// contribution against a unit-power signal (linear power ratio); it
// feeds the per-stage loss decomposition in src/impair/loss.hpp.
#pragma once

#include <cstdint>

#include "src/impair/config.hpp"
#include "src/phy/waveform.hpp"

namespace mmtag::impair {

/// Rapp AM/AM (p = 2) + rational AM/PM power-amplifier stage.
/// Transmit side, stream ordinal 0, deterministic.
class PaStage {
 public:
  /// Precomputes 1/Asat^2 from the backoff and the AM/PM curve
  /// coefficients from the rotation-at-saturation spec.
  explicit PaStage(const PaParams& params);

  void apply(phy::Waveform& samples, std::uint64_t seed) const;
  [[nodiscard]] double evm_squared() const { return evm_squared_; }

  /// Compressive gain g(A) of the Rapp curve at amplitude `amplitude`
  /// (reference helper for tests; the kernel computes the same bits).
  [[nodiscard]] double gain_at(double amplitude) const;
  /// AM/PM rotation [radians] at amplitude `amplitude`.
  [[nodiscard]] double phase_at(double amplitude) const;

 private:
  double inv_sat2_ = 0.0;     ///< 1 / Asat^2 for a unit-power input.
  double k_pm_ = 0.0;         ///< AM/PM tangent-half-angle numerator gain.
  double b_pm_ = 0.0;         ///< AM/PM denominator bend (= 1/Asat^2).
  double evm_squared_ = 0.0;  ///< |g(1) e^{j theta(1)} - 1|^2.
};

/// Wiener + white LO phase-noise stage. Receive side, stream ordinal 1,
/// stochastic: coefficients cos/sin(phi_n) are generated in scalar code
/// from the stage's derived stream, then applied with the exact
/// mul_complex kernel.
class PhaseNoiseStage {
 public:
  /// Precomputes the per-sample Wiener increment sigma and the white
  /// floor sigma from the linewidth and sample rate.
  explicit PhaseNoiseStage(const PhaseNoiseParams& params);

  void apply(phy::Waveform& samples, std::uint64_t seed) const;
  [[nodiscard]] double evm_squared() const { return evm_squared_; }

 private:
  double wiener_sigma_ = 0.0;  ///< Wiener increment sigma per sample [rad].
  double white_sigma_ = 0.0;   ///< White phase floor sigma [rad].
  double evm_squared_ = 0.0;
};

/// Receive IQ-imbalance stage y = mu x + nu conj(x). Receive side,
/// stream ordinal 2, deterministic.
class IqImbalanceStage {
 public:
  /// Precomputes mu and nu from the gain/phase mismatch.
  explicit IqImbalanceStage(const IqImbalanceParams& params);

  void apply(phy::Waveform& samples, std::uint64_t seed) const;
  [[nodiscard]] double evm_squared() const { return evm_squared_; }

  /// Direct-path coefficient mu.
  [[nodiscard]] phy::Complex mu() const { return mu_; }
  /// Image-path coefficient nu (|nu/mu|^2 is the image power ratio).
  [[nodiscard]] phy::Complex nu() const { return nu_; }

 private:
  phy::Complex mu_{1.0, 0.0};
  phy::Complex nu_{0.0, 0.0};
  double evm_squared_ = 0.0;
};

/// ADC mid-tread quantization + aperture-jitter stage. Receive side,
/// stream ordinal 3; stochastic only when jitter_ps_rms > 0.
class AdcStage {
 public:
  /// Precomputes the quantizer step from bits/full-scale and the
  /// jitter-noise sigma from the slew-rate model.
  explicit AdcStage(const AdcParams& params);

  void apply(phy::Waveform& samples, std::uint64_t seed) const;
  [[nodiscard]] double evm_squared() const { return evm_squared_; }

  /// Quantizer step per I/Q rail.
  [[nodiscard]] double step() const { return step_; }

 private:
  double full_scale_ = 0.0;
  double step_ = 0.0;
  double inv_step_ = 0.0;
  double jitter_sigma_ = 0.0;  ///< Aperture-jitter noise sigma per rail.
  double evm_squared_ = 0.0;
};

}  // namespace mmtag::impair
