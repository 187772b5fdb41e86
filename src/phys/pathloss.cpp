#include "src/phys/pathloss.hpp"

#include <cassert>
#include <cmath>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::phys {

double free_space_path_loss_db(double distance_m, double frequency_hz) {
  assert(distance_m > 0.0);
  assert(frequency_hz > 0.0);
  const double lambda = wavelength_m(frequency_hz);
  return 20.0 * std::log10(4.0 * kPi * distance_m / lambda);
}

double free_space_gain_linear(double distance_m, double frequency_hz) {
  return db_to_ratio(-free_space_path_loss_db(distance_m, frequency_hz));
}

double friis_received_power_dbm(double tx_power_dbm, double tx_gain_dbi,
                                double rx_gain_dbi, double distance_m,
                                double frequency_hz) {
  return tx_power_dbm + tx_gain_dbi + rx_gain_dbi -
         free_space_path_loss_db(distance_m, frequency_hz);
}

}  // namespace mmtag::phys
