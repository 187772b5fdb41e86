// Decomposed implementation-loss budget (DESIGN.md Sec. 16,
// docs/IMPAIRMENTS.md).
//
// The legacy link budget charges one opaque `implementation_loss_db`.
// This module replaces it with an auditable sum: each enabled stage
// contributes its small-signal EVM^2 (distortion power against a
// unit-power signal), and a distortion floor of power evm^2 at the
// required operating SNR gamma costs
//
//   L = -10 log10(1 - gamma * evm^2)   [dB],
//
// the SNR penalty that restores the ideal detection margin. Stage
// contributions combine by summing EVM^2 *before* the log (distortion
// powers add; dB losses do not), and a `residual_db` term carries the
// assembly losses (substrate, switch insertion, polarization) that the
// four stages do not model. When gamma * evm^2 >= 1 the link is
// floor-limited — no amount of transmit power restores the margin — and
// the loss is clamped to kFloorLossDb with the flag set.
#pragma once

#include <string_view>
#include <vector>

#include "src/impair/config.hpp"

namespace mmtag::impair {

/// Loss reported when the distortion floor sits at or above the
/// required SNR (the true loss is unbounded).
inline constexpr double kFloorLossDb = 60.0;

/// One stage's share of the decomposed budget.
struct StageLoss {
  /// Stage name ("pa", "phase_noise", "iq", "adc").
  std::string_view stage;
  /// Whether the stage is enabled (disabled stages report zeros).
  bool enabled = false;
  /// Small-signal EVM^2 of the stage against a unit-power signal.
  double evm_squared = 0.0;
  /// Stand-alone SNR penalty of this stage at the required SNR [dB].
  double loss_db = 0.0;
  /// True when this stage alone pushes the floor above the required SNR.
  bool floor_limited = false;
};

/// Full decomposition of the implementation loss.
struct LossReport {
  /// Per-stage shares in fixed pipeline order (PA, phase noise, IQ, ADC).
  std::vector<StageLoss> stages;
  /// Operating SNR the penalty is evaluated at [dB].
  double required_snr_db = 0.0;
  /// Unmodelled assembly losses carried through from the config [dB].
  double residual_db = 0.0;
  /// Joint loss of the enabled stages (sum of EVM^2, then log) [dB].
  double modelled_db = 0.0;
  /// modelled_db + residual_db — the drop-in replacement for the legacy
  /// `implementation_loss_db` scalar [dB].
  double total_db = 0.0;
  /// True when the joint distortion floor reaches the required SNR.
  bool floor_limited = false;
};

/// SNR penalty of a distortion floor of power `evm_squared` at operating
/// SNR `required_snr_db`: -10 log10(1 - gamma evm^2), clamped to
/// kFloorLossDb when gamma evm^2 >= 1.
[[nodiscard]] double stage_loss_db(double evm_squared, double required_snr_db);

/// Decompose `config` into per-stage and total losses at
/// `required_snr_db` (default: the 7 dB the paper's ASK detector needs
/// for BER 1e-3). Pure. Throws std::invalid_argument when `config` fails
/// ImpairmentConfig::validate().
[[nodiscard]] LossReport decompose(const ImpairmentConfig& config,
                                   double required_snr_db = 7.0);

}  // namespace mmtag::impair
