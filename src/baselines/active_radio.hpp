// Active-radio power models for the energy comparison (experiment C4).
//
// Paper Sec. 1: backscatter cuts IoT power "by orders of magnitude" versus
// active radios, and phased arrays alone "consume a significant amount of
// power" (a few watts, Secs. 3 & 5). These models put numbers behind both
// statements: a full active mmWave transceiver (phased array + PA + data
// converters), an active Wi-Fi radio, and a BLE radio, each reporting
// energy per bit at a given rate so the bench can chart the gap against
// TagEnergyModel.
#pragma once

#include <string>
#include <vector>

namespace mmtag::baselines {

/// The active mmWave radio's electronically steered 24 GHz array: a static
/// bias-tree power plus a biased phase shifter and a front-end (LNA or PA
/// pre-amplifier) per element, in line with the few-watt figure the paper
/// cites for commercial phased arrays (Secs. 3 & 5).
inline constexpr int kActiveArrayElements = 16;
inline constexpr double kActiveArrayShifterPowerW = 0.015;
inline constexpr double kActiveArrayFrontendPowerW = 0.040;
inline constexpr double kActiveArrayStaticPowerW = 0.25;
/// The array's DC power while active [W].
inline constexpr double kActiveArrayDcPowerW =
    kActiveArrayStaticPowerW +
    kActiveArrayElements *
        (kActiveArrayShifterPowerW + kActiveArrayFrontendPowerW);

struct ActiveRadioModel {
  std::string name;
  double dc_power_w = 0.0;        ///< Power while transmitting.
  double peak_rate_bps = 0.0;     ///< Rate at which that power is spent.

  /// Energy per bit at the radio's peak rate [J/bit].
  [[nodiscard]] double energy_per_bit_j() const;
};

/// Active 24 GHz mmWave transceiver: 16-element phased array + PA + ADC/DSP.
[[nodiscard]] ActiveRadioModel active_mmwave_radio();

/// 802.11n Wi-Fi SoC (~1 W at ~100 Mbps effective).
[[nodiscard]] ActiveRadioModel active_wifi_radio();

/// BLE radio (~30 mW at 1 Mbps) — the low-power active benchmark.
[[nodiscard]] ActiveRadioModel active_ble_radio();

/// All active baselines.
[[nodiscard]] std::vector<ActiveRadioModel> all_active_radios();

}  // namespace mmtag::baselines
