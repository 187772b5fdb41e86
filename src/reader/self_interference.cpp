#include "src/reader/self_interference.hpp"

#include <algorithm>
#include <cassert>

#include "src/phys/units.hpp"

namespace mmtag::reader {

SelfInterferenceModel::SelfInterferenceModel(Params params)
    : params_(params) {
  assert(params_.antenna_isolation_db >= 0.0);
}

double SelfInterferenceModel::residual_dbm(double tx_power_dbm) const {
  return tx_power_dbm -
         std::min(params_.antenna_isolation_db, kSelfInterferenceLimitDb);
}

double SelfInterferenceModel::sinr_db(double tag_power_dbm,
                                      double tx_power_dbm,
                                      double bandwidth_hz,
                                      const phys::NoiseModel& noise) const {
  const double si_w = phys::dbm_to_watts(residual_dbm(tx_power_dbm));
  const double noise_w = noise.power_w(bandwidth_hz);
  const double tag_w = phys::dbm_to_watts(tag_power_dbm);
  return phys::ratio_to_db(tag_w / (si_w + noise_w));
}

double SelfInterferenceModel::achievable_rate_bps(
    double tag_power_dbm, double tx_power_dbm,
    const phy::RateTable& rates) const {
  for (const phy::RateTier& tier : rates.tiers()) {
    const double sinr = sinr_db(tag_power_dbm, tx_power_dbm,
                                tier.bandwidth_hz, rates.noise());
    if (sinr >= rates.required_snr_db()) return tier.bit_rate_bps;
  }
  return 0.0;
}

}  // namespace mmtag::reader
