#include "src/impair/loss.hpp"

#include <cmath>

#include "src/impair/stages.hpp"

namespace mmtag::impair {

double stage_loss_db(double evm_squared, double required_snr_db) {
  if (evm_squared <= 0.0) {
    return 0.0;
  }
  const double gamma = std::pow(10.0, required_snr_db / 10.0);
  const double floor = gamma * evm_squared;
  if (floor >= 1.0) {
    return kFloorLossDb;
  }
  const double loss = -10.0 * std::log10(1.0 - floor);
  return loss < kFloorLossDb ? loss : kFloorLossDb;
}

LossReport decompose(const ImpairmentConfig& config, double required_snr_db) {
  config.validate();
  const double gamma = std::pow(10.0, required_snr_db / 10.0);

  LossReport report;
  report.required_snr_db = required_snr_db;
  report.residual_db = config.residual_db;

  // One row per stage in pipeline order; a disabled stage reports zeros.
  double evm_total = 0.0;
  const auto add_row = [&](std::string_view stage, bool enabled,
                           double evm_squared) {
    StageLoss entry;
    entry.stage = stage;
    entry.enabled = enabled;
    if (enabled) {
      entry.evm_squared = evm_squared;
      entry.loss_db = stage_loss_db(evm_squared, required_snr_db);
      entry.floor_limited = gamma * evm_squared >= 1.0;
      evm_total += evm_squared;
    }
    report.stages.push_back(entry);
  };
  add_row("pa", config.pa.enabled, PaStage(config.pa).evm_squared());
  add_row("phase_noise", config.phase_noise.enabled,
          PhaseNoiseStage(config.phase_noise).evm_squared());
  add_row("iq", config.iq.enabled, IqImbalanceStage(config.iq).evm_squared());
  add_row("adc", config.adc.enabled, AdcStage(config.adc).evm_squared());

  report.floor_limited = gamma * evm_total >= 1.0;
  report.modelled_db = stage_loss_db(evm_total, required_snr_db);
  report.total_db = report.modelled_db + report.residual_db;
  return report;
}

}  // namespace mmtag::impair
