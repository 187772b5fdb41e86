#include "src/impair/loss.hpp"

#include <cmath>

#include "src/impair/chain.hpp"

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
  const ImpairmentChain chain(config);
  const double gamma = std::pow(10.0, required_snr_db / 10.0);

  LossReport report;
  report.required_snr_db = required_snr_db;
  report.residual_db = config.residual_db;

  double evm_total = 0.0;
  for (const ImpairmentStage* stage : chain.stages()) {
    StageLoss entry;
    entry.stage = stage->name();
    // Enablement is per-stage config; the chain skips disabled stages.
    const bool enabled = (stage->name() == "pa" && config.pa.enabled) ||
                         (stage->name() == "phase_noise" &&
                          config.phase_noise.enabled) ||
                         (stage->name() == "iq" && config.iq.enabled) ||
                         (stage->name() == "adc" && config.adc.enabled);
    entry.enabled = enabled;
    if (enabled) {
      entry.evm_squared = stage->evm_squared();
      entry.loss_db = stage_loss_db(entry.evm_squared, required_snr_db);
      entry.floor_limited = gamma * entry.evm_squared >= 1.0;
      evm_total += entry.evm_squared;
    }
    report.stages.push_back(entry);
  }

  report.floor_limited = gamma * evm_total >= 1.0;
  report.modelled_db = stage_loss_db(evm_total, required_snr_db);
  report.total_db = report.modelled_db + report.residual_db;
  return report;
}

}  // namespace mmtag::impair
