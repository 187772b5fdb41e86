#include "src/phy/rate_adaptation.hpp"

#include <utility>

namespace mmtag::phy {

namespace {

/// Extra margin [dB] the power must clear above a tier's threshold before
/// upgrading into it (downgrades happen at the bare threshold).
constexpr double kUpHysteresisDb = 3.0;
/// Consecutive qualifying observations required before an upgrade.
constexpr int kUpDwellCount = 3;

}  // namespace

RateController::RateController(RateTable table) : table_(std::move(table)) {}

double RateController::observe_dbm(double received_power_dbm) {
  // Downgrade immediately when the current tier's bare threshold fails.
  const double sustainable = table_.achievable_rate_bps(received_power_dbm);
  if (sustainable < current_rate_bps_) {
    current_rate_bps_ = sustainable;
    qualifying_streak_ = 0;
    ++switch_count_;
    return current_rate_bps_;
  }

  // Upgrade only after the dwell count at threshold + hysteresis.
  const double guarded = table_.achievable_rate_bps(
      received_power_dbm - kUpHysteresisDb);
  if (guarded > current_rate_bps_) {
    if (++qualifying_streak_ >= kUpDwellCount) {
      current_rate_bps_ = guarded;
      qualifying_streak_ = 0;
      ++switch_count_;
    }
  } else {
    qualifying_streak_ = 0;
  }
  return current_rate_bps_;
}

}  // namespace mmtag::phy
