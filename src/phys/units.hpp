// Unit conversions for RF work: decibels, powers, frequencies and lengths.
//
// Conventions:
//   * Linear power is always watts; logarithmic power is always dBm.
//   * Ratios are dimensionless in linear form and dB in logarithmic form.
//   * Function names carry the units ("watts_to_dbm"), so call sites read
//     unambiguously even though the underlying type is plain double.
#pragma once

namespace mmtag::phys {

// ---------------------------------------------------------------------------
// Decibel <-> linear ratio
// ---------------------------------------------------------------------------

/// Convert a linear power ratio (> 0) to decibels.
[[nodiscard]] double ratio_to_db(double ratio);

/// Convert decibels to a linear power ratio.
[[nodiscard]] double db_to_ratio(double db);

/// Convert a linear *amplitude* (voltage/field) ratio to decibels (20 log10).
[[nodiscard]] double amplitude_ratio_to_db(double ratio);

/// Convert decibels to a linear amplitude ratio (10^(dB/20)).
[[nodiscard]] double db_to_amplitude_ratio(double db);

// ---------------------------------------------------------------------------
// Power
// ---------------------------------------------------------------------------

/// Convert watts (> 0) to dBm.
[[nodiscard]] double watts_to_dbm(double watts);

/// Convert dBm to watts.
[[nodiscard]] double dbm_to_watts(double dbm);

/// Sum an arbitrary number of powers expressed in dBm, returning dBm.
/// (Powers add linearly, so this converts, adds and converts back.)
[[nodiscard]] double sum_powers_dbm(double a_dbm, double b_dbm);

// ---------------------------------------------------------------------------
// Frequency / wavelength
// ---------------------------------------------------------------------------

/// Free-space wavelength [m] of a carrier at `hz`.
[[nodiscard]] double wavelength_m(double hz);

/// Free-space wavenumber K0 = 2*pi/lambda [rad/m] of a carrier at `hz`.
[[nodiscard]] double wavenumber_rad_per_m(double hz);

/// Convenience: GHz to Hz.
[[nodiscard]] constexpr double ghz(double value) { return value * 1e9; }

/// Convenience: MHz to Hz.
[[nodiscard]] constexpr double mhz(double value) { return value * 1e6; }

/// Convenience: kHz to Hz.
[[nodiscard]] constexpr double khz(double value) { return value * 1e3; }

// ---------------------------------------------------------------------------
// Length & angle
// ---------------------------------------------------------------------------

/// Feet to meters. The paper quotes every range in feet; the simulator
/// works in meters.
[[nodiscard]] constexpr double feet_to_m(double feet) { return feet * 0.3048; }

/// Meters to feet.
[[nodiscard]] constexpr double m_to_feet(double m) { return m / 0.3048; }

/// Degrees to radians.
[[nodiscard]] double deg_to_rad(double deg);

/// Radians to degrees.
[[nodiscard]] double rad_to_deg(double rad);

/// Wrap an angle to (-pi, pi].
[[nodiscard]] double wrap_angle_rad(double rad);

}  // namespace mmtag::phys
