#include "src/net/rate_control.hpp"

#include <cmath>
#include <stdexcept>

#include "src/phy/ber.hpp"

namespace mmtag::net {

AckRateController::AckRateController(const phy::RateTable* table,
                                     double received_power_dbm)
    : table_(table), power_dbm_(received_power_dbm) {
  if (table_ == nullptr || table_->tiers().empty()) {
    throw std::invalid_argument(
        "AckRateController::table must hold at least one tier");
  }
  // Open-loop start: fastest tier the link budget clears, else the
  // slowest one (tiers are sorted by descending bit rate).
  const std::size_t tiers = table_->tiers().size();
  tier_ = tiers - 1;
  for (std::size_t i = 0; i < tiers; ++i) {
    if (power_dbm_ >= table_->levels(i).required_power_dbm) {
      tier_ = i;
      break;
    }
  }
}

const phy::RateTier& AckRateController::tier() const {
  return table_->tiers()[tier_];
}

bool AckRateController::on_ack_round(int delivered, int transmitted) {
  if (transmitted <= 0) return false;
  const double ratio =
      static_cast<double>(delivered) / static_cast<double>(transmitted);
  ewma_ = (1.0 - kAckHistoryAlpha) * ewma_ + kAckHistoryAlpha * ratio;

  if (ewma_ < kDownshiftDeliveryRatio) {
    dwell_ = 0;
    if (tier_ + 1 < table_->tiers().size()) {
      ++tier_;
      ++switches_;
      // A fresh tier gets a fresh record — inheriting the failed tier's
      // EWMA would immediately downshift again through every tier.
      ewma_ = 1.0;
      return true;
    }
    return false;
  }

  if (ewma_ >= kUpshiftDeliveryRatio && tier_ > 0) {
    const bool snr_clears =
        power_dbm_ >= table_->levels(tier_ - 1).required_power_dbm +
                          kUpshiftSnrMarginDb;
    if (snr_clears) {
      if (++dwell_ >= kUpshiftDwellRounds) {
        --tier_;
        ++switches_;
        dwell_ = 0;
        // Probing a faster tier starts from a clean slate too: the first
        // bad rounds should demote it on their own evidence.
        ewma_ = 1.0;
        return true;
      }
      return false;
    }
  }
  dwell_ = 0;
  return false;
}

double packet_success_probability(const phy::RateTable& table,
                                  std::size_t tier_index,
                                  double received_power_dbm,
                                  std::size_t on_air_chips) {
  const double snr_db =
      received_power_dbm - table.levels(tier_index).noise_dbm;
  const double chip_error = phy::ook_coherent_ber(snr_db);
  return std::pow(1.0 - chip_error, static_cast<double>(on_air_chips));
}

}  // namespace mmtag::net
