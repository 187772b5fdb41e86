// Free-space propagation: Friis path loss and aperture/gain relations.
//
// mmWave signals "decay very quickly with distance" (paper Sec. 2.2) only in
// the sense that a fixed-gain antenna's effective aperture shrinks with
// wavelength; the Friis equation captures this through the (lambda/4*pi*d)^2
// term. All of Fig. 7's range behaviour comes from applying this model twice
// (reader->tag and tag->reader).
#pragma once

namespace mmtag::phys {

/// One-way free-space path loss (FSPL) as a positive dB value:
///   FSPL = 20 log10(4 * pi * d / lambda).
/// `distance_m` and `frequency_hz` must be positive.
[[nodiscard]] double free_space_path_loss_db(double distance_m,
                                             double frequency_hz);

/// Linear power gain of the free-space channel, i.e. 1 / FSPL_linear.
[[nodiscard]] double free_space_gain_linear(double distance_m,
                                            double frequency_hz);

/// Friis transmission: received power [dBm] over a one-way link.
///   P_rx = P_tx + G_tx + G_rx - FSPL(d).
[[nodiscard]] double friis_received_power_dbm(double tx_power_dbm,
                                              double tx_gain_dbi,
                                              double rx_gain_dbi,
                                              double distance_m,
                                              double frequency_hz);

}  // namespace mmtag::phys
