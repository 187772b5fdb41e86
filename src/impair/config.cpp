#include "src/impair/config.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "src/impair/chain.hpp"
#include "src/impair/loss.hpp"

namespace mmtag::impair {

namespace {

void require(bool ok, const char* field, const char* rule) {
  if (!ok) {
    throw std::invalid_argument(std::string("ImpairmentConfig::") + field +
                                " must be " + rule);
  }
}

}  // namespace

ImpairmentConfig ImpairmentConfig::off() { return ImpairmentConfig{}; }

ImpairmentConfig ImpairmentConfig::cmos_24ghz() {
  ImpairmentConfig config;
  config.phase_noise.enabled = true;
  config.pa.enabled = true;
  config.iq.enabled = true;
  config.adc.enabled = true;
  // Residual = the prototype's calibrated 14 dB implementation loss
  // minus what the four stages explain at the 7 dB required SNR, so the
  // decomposed total reproduces the legacy budget exactly
  // (docs/IMPAIRMENTS.md, worked example 1).
  config.residual_db = 0.0;
  const LossReport modelled = decompose(config, 7.0);
  config.residual_db = 14.0 - modelled.modelled_db;
  return config;
}

bool ImpairmentConfig::any_enabled() const {
  return phase_noise.enabled || pa.enabled || iq.enabled || adc.enabled;
}

void ImpairmentConfig::validate() const {
  const auto finite_nonneg = [](double v) {
    return std::isfinite(v) && v >= 0.0;
  };
  const auto finite_pos = [](double v) { return std::isfinite(v) && v > 0.0; };
  require(finite_nonneg(phase_noise.linewidth_hz), "phase_noise.linewidth_hz",
          "finite and >= 0");
  require(finite_nonneg(phase_noise.white_phase_deg_rms),
          "phase_noise.white_phase_deg_rms", "finite and >= 0");
  require(finite_pos(phase_noise.sample_rate_hz),
          "phase_noise.sample_rate_hz", "finite and > 0");
  require(phase_noise.coherence_samples >= 1, "phase_noise.coherence_samples",
          ">= 1");
  require(std::isfinite(pa.backoff_db), "pa.backoff_db", "finite");
  // The AM/PM curve goes through tan(theta/2): +-180 deg is a pole.
  require(pa.am_pm_deg_at_sat > -180.0 && pa.am_pm_deg_at_sat < 180.0,
          "pa.am_pm_deg_at_sat", "in (-180, 180)");
  require(std::isfinite(iq.gain_mismatch_db), "iq.gain_mismatch_db",
          "finite");
  require(std::isfinite(iq.phase_mismatch_deg), "iq.phase_mismatch_deg",
          "finite");
  // Every code index up to 2^bits must be an exact integer in a double.
  require(adc.bits >= 1 && adc.bits <= 52, "adc.bits", "in [1, 52]");
  require(finite_pos(adc.full_scale), "adc.full_scale", "finite and > 0");
  require(finite_nonneg(adc.jitter_ps_rms), "adc.jitter_ps_rms",
          "finite and >= 0");
  require(finite_pos(adc.sample_rate_hz), "adc.sample_rate_hz",
          "finite and > 0");
  require(finite_nonneg(residual_db), "residual_db", "finite and >= 0");
}

}  // namespace mmtag::impair
