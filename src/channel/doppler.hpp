// Backscatter Doppler: what motion does to the reflected carrier.
//
// A backscatter reflection picks up TWICE the one-way Doppler shift
// (the wave is shifted on the way in and again on the way out):
// f_d = 2 v_radial / lambda. At 24 GHz that is 160 Hz per m/s — large
// enough that the reader's carrier recovery must track walking-speed tags,
// and sensitive enough that sub-millimetre vibrations show up as phase
// modulation. The latter is the sensing opportunity behind the RFID
// sensing systems the paper cites (Sec. 3).
#pragma once

#include <vector>

#include "src/channel/mobility.hpp"

namespace mmtag::channel {

/// Two-way carrier phase of a reflection from the moving point at each
/// sample time: phi(t) = -2 k0 d(t) [rad], the signal a vibration sensor
/// reads.
[[nodiscard]] std::vector<double> backscatter_phase_series(
    const Mobility& path, Vec2 observer, double frequency_hz,
    double duration_s, double sample_rate_hz);

/// Peak-to-peak displacement [m] recovered from a backscatter phase series
/// (inverse of the phase relation; assumes the series stays within one
/// wavelength, i.e. no unwrap needed beyond the principal branch).
[[nodiscard]] double displacement_from_phase_m(
    const std::vector<double>& phase_rad, double frequency_hz);

}  // namespace mmtag::channel
