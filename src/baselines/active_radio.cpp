#include "src/baselines/active_radio.hpp"

#include <cassert>

namespace mmtag::baselines {

double ActiveRadioModel::energy_per_bit_j() const {
  assert(peak_rate_bps > 0.0);
  return dc_power_w / peak_rate_bps;
}

ActiveRadioModel active_mmwave_radio() {
  ActiveRadioModel radio;
  radio.name = "Active mmWave (16-el phased array)";
  // Array + PA (0.5 W) + ADC/baseband (0.75 W): lands in the "few watts"
  // band the paper cites for mmWave front-ends.
  radio.dc_power_w = kActiveArrayDcPowerW + 0.5 + 0.75;
  radio.peak_rate_bps = 1.0e9;
  return radio;
}

ActiveRadioModel active_wifi_radio() {
  ActiveRadioModel radio;
  radio.name = "Active Wi-Fi (802.11n)";
  radio.dc_power_w = 1.0;
  radio.peak_rate_bps = 100.0e6;
  return radio;
}

ActiveRadioModel active_ble_radio() {
  ActiveRadioModel radio;
  radio.name = "BLE";
  radio.dc_power_w = 0.030;
  radio.peak_rate_bps = 1.0e6;
  return radio;
}

std::vector<ActiveRadioModel> all_active_radios() {
  return {active_mmwave_radio(), active_wifi_radio(), active_ble_radio()};
}

}  // namespace mmtag::baselines
