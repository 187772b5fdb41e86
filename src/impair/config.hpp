// Calibrated hardware-impairment parameters (DESIGN.md Sec. 16).
//
// The paper's link budget folds every non-ideality of the prototype into
// one opaque `implementation_loss_db` scalar. This header decomposes that
// scalar into four physical mechanisms with measurable parameters, each
// calibrated against the mmWave transceiver impairment survey of
// Hunukumbure et al., "Performance and Impairment Modelling for Hardware
// Components in Millimetre-wave Transceivers" (arXiv:1803.05665):
//
//   * local-oscillator phase noise   (Wiener linewidth + white floor),
//   * PA nonlinearity                (Rapp AM/AM, p = 2, plus AM/PM),
//   * receiver IQ imbalance          (gain/phase mismatch),
//   * ADC quantization + aperture jitter.
//
// Every stage carries an `enabled` bit; a config with all bits clear is
// the *bypass* mode and is contractually bit-identical to the legacy
// chain — no RNG draws, no sample writes, no metric records (tested by
// test_impair.cpp). Parameter-to-measurement mapping and worked loss
// budgets live in docs/IMPAIRMENTS.md.
#pragma once

namespace mmtag::impair {

/// Local-oscillator phase noise: a Wiener (random-walk) process whose
/// increment variance per sample is 2*pi*linewidth/fs, plus an
/// uncorrelated white phase floor. The Wiener term models the Lorentzian
/// close-in skirt of an integrated CMOS PLL; the white term models the
/// far-out thermal floor folded over the sampling bandwidth.
struct PhaseNoiseParams {
  /// Stage on/off. Off draws no RNG values and writes no samples.
  bool enabled = false;
  /// Two-sided 3-dB Lorentzian linewidth of the LO [Hz].
  double linewidth_hz = 200.0e3;
  /// RMS of the white (uncorrelated) phase floor [degrees].
  double white_phase_deg_rms = 0.6;
  /// Complex-baseband sample rate the increments are drawn at [Hz].
  double sample_rate_hz = 1.0e9;
  /// Demodulator phase-tracking window [samples]: the loss model charges
  /// the mean accumulated Wiener variance over this window, i.e. the
  /// residual the tracker cannot follow.
  int coherence_samples = 64;
};

/// Reader power amplifier: Rapp AM/AM with smoothness p = 2 and a
/// rational tangent-half-angle AM/PM curve (both exactly computable with
/// IEEE +,-,*,/ and sqrt, so the kernel stays bit-identical across SIMD
/// backends; see src/kern/kern.hpp `pa_rapp`).
struct PaParams {
  /// Stage on/off. The stage is deterministic (no RNG draws).
  bool enabled = false;
  /// Input backoff from PA saturation for a unit-power waveform [dB].
  double backoff_db = 8.0;
  /// AM/PM phase rotation when the input amplitude reaches saturation
  /// [degrees]. The curve is ~quadratic in amplitude below saturation.
  double am_pm_deg_at_sat = 5.0;
};

/// Receive-path IQ imbalance: y = mu*x + nu*conj(x) with
/// mu = (1 + g*e^{j phi})/2 and nu = (1 - g*e^{-j phi})/2, where g is the
/// linear gain mismatch and phi the quadrature phase error.
struct IqImbalanceParams {
  /// Stage on/off. The stage is deterministic (no RNG draws).
  bool enabled = false;
  /// I/Q gain mismatch [dB] (g = 10^(mismatch/20)).
  double gain_mismatch_db = 0.5;
  /// Quadrature phase error [degrees].
  double phase_mismatch_deg = 3.0;
};

/// Receiver ADC: mid-tread uniform quantizer with hard clipping at the
/// full-scale amplitude, plus aperture-jitter noise applied as white
/// Gaussian noise whose power follows the slew-rate model
/// (2*pi*B_eff*tau_jitter)^2 against a unit-power signal.
struct AdcParams {
  /// Stage on/off. Off draws no RNG values even when jitter_ps_rms > 0.
  bool enabled = false;
  /// Resolution [bits] per I/Q rail.
  int bits = 6;
  /// Full-scale amplitude: inputs clip at +/- this value per rail. The
  /// chain operates on near-unit-power waveforms, so 2.0 leaves 6 dB of
  /// headroom above the OOK on-state.
  double full_scale = 2.0;
  /// RMS aperture jitter of the sampling clock [ps].
  double jitter_ps_rms = 0.5;
  /// Converter sample rate [Hz]; sets the effective slew bandwidth
  /// B_eff = sample_rate/2 for the jitter-noise model.
  double sample_rate_hz = 1.0e9;
};

/// Full impairment configuration: the four modelled stages plus a
/// residual term for losses the stages do not model (substrate, switch
/// insertion, polarization — the assembly losses of the prototype).
struct ImpairmentConfig {
  /// LO phase noise (stream ordinal 1, RX side).
  PhaseNoiseParams phase_noise;
  /// PA nonlinearity (stream ordinal 0, TX side).
  PaParams pa;
  /// Receiver IQ imbalance (stream ordinal 2, RX side).
  IqImbalanceParams iq;
  /// ADC quantization + jitter (stream ordinal 3, RX side).
  AdcParams adc;
  /// Unmodelled assembly losses [dB], added on top of the modelled
  /// stage losses by impair::decompose().
  double residual_db = 0.0;

  /// All stages disabled, residual 0 — the bypass configuration.
  [[nodiscard]] static ImpairmentConfig off();

  /// Calibrated defaults for a 24 GHz CMOS reader front end
  /// (docs/IMPAIRMENTS.md maps each number to arXiv:1803.05665): all
  /// four stages enabled with the per-stage defaults above and a
  /// residual chosen so the decomposed total reproduces the prototype's
  /// 14 dB `implementation_loss_db` at the 7 dB required SNR.
  [[nodiscard]] static ImpairmentConfig cmos_24ghz();

  /// True when at least one stage's `enabled` bit is set.
  [[nodiscard]] bool any_enabled() const;

  /// Throws std::invalid_argument naming the first out-of-range field,
  /// enabled stage or not (ImpairmentChain's constructor calls it).
  void validate() const;
};

}  // namespace mmtag::impair
