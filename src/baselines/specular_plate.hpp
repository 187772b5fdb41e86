// Specular (mirror-like) flat-plate reflector baseline.
//
// Paper Sec. 5.2: a typical reflector "does this only when the angle of
// incidence is 0 degrees" — it reflects to the *mirror* direction, not back
// to the source. The plate makes the null hypothesis for experiment C2: its
// monostatic response is a sinc-like lobe collapsing off normal incidence,
// while the Van Atta stays flat.
#pragma once

namespace mmtag::baselines {

class SpecularPlate {
 public:
  /// A flat conducting plate of width `width_m` at carrier `frequency_hz`
  /// (the mmTag prototype footprint is 60 mm wide).
  SpecularPlate(double width_m, double frequency_hz);

  /// Plate matching the mmTag prototype aperture.
  [[nodiscard]] static SpecularPlate like_mmtag_prototype();

  /// Monostatic reflection gain at incidence `theta_rad` [dB rel. isotropic
  /// scatterer]: physical-optics flat-plate pattern
  ///   G(theta) ~ G0 * cos^2(theta) * sinc^2( (w/lambda) * sin(2 theta) )
  /// peaking at normal incidence and collapsing off-normal.
  [[nodiscard]] double monostatic_gain_db(double theta_rad) const;

 private:
  double width_m_;
  double frequency_hz_;
};

}  // namespace mmtag::baselines
