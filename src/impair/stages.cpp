#include "src/impair/stages.hpp"

#include <cmath>
#include <numbers>
#include <vector>

#include "src/kern/kern.hpp"
#include "src/phy/normal.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::impair {
namespace {

constexpr double kPi = std::numbers::pi;
constexpr double kDegToRad = kPi / 180.0;

// Stream ordinals of the stochastic stages (PA = 0 and IQ = 2 draw
// nothing).
constexpr std::uint64_t kPhaseNoiseStream = 1;
constexpr std::uint64_t kAdcStream = 3;

[[nodiscard]] double db_to_linear_power(double db) {
  return std::pow(10.0, db / 10.0);
}

[[nodiscard]] double db_to_linear_amplitude(double db) {
  return std::pow(10.0, db / 20.0);
}

}  // namespace

// --- PaStage ---------------------------------------------------------------

PaStage::PaStage(const PaParams& params) {
  // A unit-power waveform backed off by `backoff_db` sees
  // Asat^2 = 10^(backoff/10), so the kernel's 1/Asat^2 is the inverse.
  inv_sat2_ = 1.0 / db_to_linear_power(params.backoff_db);
  b_pm_ = inv_sat2_;
  // theta(A) = 2 atan(t), t = k A^2 / (1 + b A^2). At A = Asat the
  // denominator is exactly 2, so k = 2 tan(theta_sat / 2) / Asat^2.
  const double theta_sat = params.am_pm_deg_at_sat * kDegToRad;
  k_pm_ = 2.0 * std::tan(0.5 * theta_sat) * inv_sat2_;
  // Deterministic distortion of the unit-amplitude on-state: the error
  // vector between g(1) e^{j theta(1)} and the ideal 1.
  const double g = gain_at(1.0);
  const double theta = phase_at(1.0);
  const double er = g * std::cos(theta) - 1.0;
  const double ei = g * std::sin(theta);
  evm_squared_ = er * er + ei * ei;
}

double PaStage::gain_at(double amplitude) const {
  const double a2 = amplitude * amplitude;
  const double u = a2 * inv_sat2_;
  // Rapp p = 2: g = (1 + (A/Asat)^4)^(-1/4), computed with two exact
  // square roots exactly as the kernel does.
  return 1.0 / std::sqrt(std::sqrt(1.0 + u * u));
}

double PaStage::phase_at(double amplitude) const {
  const double a2 = amplitude * amplitude;
  const double t = (k_pm_ * a2) / (1.0 + b_pm_ * a2);
  return 2.0 * std::atan(t);
}

void PaStage::apply(phy::Waveform& samples, std::uint64_t seed) const {
  (void)seed;  // Deterministic stage.
  kern::dispatch().pa_rapp(samples.data(), samples.size(), inv_sat2_, k_pm_,
                           b_pm_);
}

// --- PhaseNoiseStage -------------------------------------------------------

PhaseNoiseStage::PhaseNoiseStage(const PhaseNoiseParams& params) {
  // Wiener increment variance per sample: 2 pi * linewidth * Ts.
  if (params.linewidth_hz > 0.0 && params.sample_rate_hz > 0.0) {
    wiener_sigma_ =
        std::sqrt(2.0 * kPi * params.linewidth_hz / params.sample_rate_hz);
  }
  white_sigma_ = params.white_phase_deg_rms * kDegToRad;
  // Small-angle EVM^2 ~= phase variance: the white floor plus the mean
  // accumulated Wiener variance over the tracking window (variance after
  // k steps is k sigma^2; its mean over k = 0..N-1 is sigma^2 (N-1)/2).
  const double window = static_cast<double>(
      params.coherence_samples > 0 ? params.coherence_samples - 1 : 0);
  evm_squared_ = white_sigma_ * white_sigma_ +
                 wiener_sigma_ * wiener_sigma_ * 0.5 * window;
}

void PhaseNoiseStage::apply(phy::Waveform& samples,
                            std::uint64_t seed) const {
  // Coefficient generation is scalar (cos/sin are not exactly-rounded
  // and never enter kernels); the Hadamard product is kernel-exact.
  sim::Rng rng(sim::derive_seed(seed, kPhaseNoiseStream));
  std::vector<phy::Complex> coeff(samples.size());
  double phi = 0.0;
  // One unit pair per sample in fixed order (walk increment, white floor)
  // so the stream layout never depends on the parameter values.
  phy::for_each_normal_pair(
      rng, 0.0, 1.0, samples.size(),
      [&](std::size_t i, double walk, double white) {
        phi += wiener_sigma_ * walk;
        const double psi = white_sigma_ * white;
        const double total = phi + psi;
        coeff[i] = phy::Complex(std::cos(total), std::sin(total));
      });
  kern::dispatch().mul_complex(samples.data(), coeff.data(), samples.size());
}

// --- IqImbalanceStage ------------------------------------------------------

IqImbalanceStage::IqImbalanceStage(const IqImbalanceParams& params) {
  const double g = db_to_linear_amplitude(params.gain_mismatch_db);
  const double phi = params.phase_mismatch_deg * kDegToRad;
  const double c = std::cos(phi);
  const double s = std::sin(phi);
  // y = mu x + nu conj(x), mu = (1 + g e^{j phi})/2, nu = (1 - g e^{-j
  // phi})/2 — the standard receive-path model; |nu/mu|^2 is the image
  // power folded onto the signal.
  mu_ = phy::Complex(0.5 * (1.0 + g * c), 0.5 * g * s);
  nu_ = phy::Complex(0.5 * (1.0 - g * c), 0.5 * g * s);
  const double mu2 = mu_.real() * mu_.real() + mu_.imag() * mu_.imag();
  const double nu2 = nu_.real() * nu_.real() + nu_.imag() * nu_.imag();
  evm_squared_ = mu2 > 0.0 ? nu2 / mu2 : 0.0;
}

void IqImbalanceStage::apply(phy::Waveform& samples,
                             std::uint64_t seed) const {
  (void)seed;  // Deterministic stage.
  kern::dispatch().iq_imbalance(samples.data(), mu_, nu_, samples.size());
}

// --- AdcStage --------------------------------------------------------------

AdcStage::AdcStage(const AdcParams& params)
    : full_scale_(params.full_scale) {
  const double levels =
      std::pow(2.0, static_cast<double>(params.bits > 0 ? params.bits : 1));
  step_ = 2.0 * params.full_scale / levels;
  inv_step_ = step_ > 0.0 ? 1.0 / step_ : 0.0;
  // Aperture jitter as slew noise: sigma^2 = (2 pi B_eff tau)^2 against
  // a unit-power signal, with B_eff = fs/2 (Nyquist band).
  const double tau = params.jitter_ps_rms * 1e-12;
  const double b_eff = 0.5 * params.sample_rate_hz;
  const double jitter_power = std::pow(2.0 * kPi * b_eff * tau, 2.0);
  // Per-rail sigma: the complex noise power splits evenly over I and Q.
  jitter_sigma_ = std::sqrt(0.5 * jitter_power);
  // Quantization noise step^2/12 per rail -> step^2/6 complex, plus the
  // jitter power, both against unit signal power.
  evm_squared_ = step_ * step_ / 6.0 + jitter_power;
}

void AdcStage::apply(phy::Waveform& samples, std::uint64_t seed) const {
  if (jitter_sigma_ > 0.0) {
    sim::Rng rng(sim::derive_seed(seed, kAdcStream));
    // Fixed draw order: one unit pair per sample, I rail then Q rail.
    phy::for_each_normal_pair(
        rng, 0.0, 1.0, samples.size(),
        [&](std::size_t i, double unit_i, double unit_q) {
          const double ni = jitter_sigma_ * unit_i;
          const double nq = jitter_sigma_ * unit_q;
          samples[i] =
              phy::Complex(samples[i].real() + ni, samples[i].imag() + nq);
        });
  }
  kern::dispatch().adc_quantize(samples.data(), samples.size(),
                                full_scale_, step_, inv_step_);
}

}  // namespace mmtag::impair
