#include "src/reader/interference.hpp"

#include <cassert>

#include "src/channel/propagation.hpp"
#include "src/channel/raytrace.hpp"
#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::reader {

double cross_reader_interference_dbm(const MmWaveReader& aggressor,
                                     const MmWaveReader& victim,
                                     const channel::Environment& env) {
  // Sum over every propagation path: which one dominates depends on the
  // two steerings, not just on geometric loss (a wall bounce hit by both
  // main lobes beats a LOS crossing through both sidelobe floors).
  const auto paths = channel::trace_paths(
      env, aggressor.pose().position, victim.pose().position);
  double total_w = 0.0;
  for (const channel::Path& path : paths) {
    const double tx_gain = aggressor.gain_dbi(path.departure_rad);
    // The arrival bearing is the direction from the victim back toward
    // the incoming wave; the victim's horn gain applies there.
    const double rx_gain = victim.gain_dbi(path.arrival_rad);
    const double loss = channel::propagation_loss_db(
                            path.length_m, phys::kMmTagCarrierHz) +
                        path.excess_loss_db;
    total_w += phys::dbm_to_watts(kReaderTxPowerDbm + tx_gain + rx_gain -
                                  loss);
  }
  return phys::watts_to_dbm(total_w);
}

double total_interference_dbm(const std::vector<MmWaveReader>& readers,
                              std::size_t victim_index,
                              const channel::Environment& env) {
  assert(victim_index < readers.size());
  double total_w = 0.0;
  for (std::size_t i = 0; i < readers.size(); ++i) {
    if (i == victim_index) continue;
    total_w += phys::dbm_to_watts(cross_reader_interference_dbm(
        readers[i], readers[victim_index], env));
  }
  if (total_w <= 0.0) return -300.0;
  return phys::watts_to_dbm(total_w);
}

double sinr_limited_rate_bps(double tag_power_dbm, double interference_dbm,
                             const phy::RateTable& rates) {
  const double interference_w = phys::dbm_to_watts(interference_dbm);
  const double tag_w = phys::dbm_to_watts(tag_power_dbm);
  for (std::size_t i = 0; i < rates.tiers().size(); ++i) {
    const double noise_w = rates.levels(i).noise_w;
    const double sinr_db =
        phys::ratio_to_db(tag_w / (noise_w + interference_w));
    if (sinr_db >= rates.required_snr_db()) {
      return rates.tiers()[i].bit_rate_bps;
    }
  }
  return 0.0;
}

}  // namespace mmtag::reader
