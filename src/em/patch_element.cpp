#include "src/em/patch_element.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::em {

PatchElement::PatchElement(PatchResonator patch, RfSwitch rf_switch,
                           double z0_ohm)
    : patch_(patch), switch_(rf_switch), z0_ohm_(z0_ohm) {
  assert(z0_ohm_ > 0.0);
}

PatchElement PatchElement::mmtag() {
  // Co-designed patch + switch: the patch is pre-tuned so that, loaded by
  // the FET's off capacitance, the element resonates exactly at the 24 GHz
  // carrier (the fabricated prototype is trimmed the same way).
  const RfSwitch fet = RfSwitch::ce3520k3();
  const PatchResonator reference = PatchResonator::mmtag_element();
  const PatchResonator tuned = PatchResonator::tuned_against_shunt(
      phys::kMmTagCarrierHz, reference.resonant_resistance_ohm(),
      reference.quality_factor(), kFetOffCapacitanceF);
  return PatchElement(tuned, fet, phys::kReferenceImpedanceOhm);
}

Complex PatchElement::impedance(SwitchState state,
                                double frequency_hz) const {
  return parallel(patch_.impedance(frequency_hz),
                  switch_.shunt_impedance(state, frequency_hz));
}

double PatchElement::s11_db(SwitchState state, double frequency_hz) const {
  return em::s11_db(impedance(state, frequency_hz), z0_ohm_);
}

Complex PatchElement::feed_coupling(SwitchState state,
                                    double frequency_hz) const {
  // Transducer gain from free space into the 50-ohm Van Atta line (equal,
  // by reciprocity, to line -> space). Two factors:
  //   1. the match: fraction of incident power accepted by the loaded
  //      element, 1 - |Gamma|^2 of (patch || switch) against z0;
  //   2. the split at the feed node: of the accepted power, only the share
  //      flowing into the *radiating* patch conductance survives — the
  //      rest burns in the switch's on-resistance. Shares follow the
  //      parallel conductances Re(Y_patch) vs Re(Y_switch).
  // In the OFF state the switch is a pure capacitance (Re Y = 0), so the
  // split factor is ~1; in the ON state it dissipates most of the accepted
  // power, which is what actually silences the tag.
  const Complex z = impedance(state, frequency_hz);
  const Complex gamma = reflection_coefficient(z, z0_ohm_);
  const double accepted = 1.0 - std::norm(gamma);
  if (accepted <= 0.0) return Complex(0.0, 0.0);

  const Complex y_patch = 1.0 / patch_.impedance(frequency_hz);
  const Complex y_switch =
      1.0 / switch_.shunt_impedance(state, frequency_hz);
  const double g_patch = y_patch.real();
  const double g_switch = y_switch.real() > 0.0 ? y_switch.real() : 0.0;
  assert(g_patch > 0.0);
  const double radiated_share = g_patch / (g_patch + g_switch);

  const double magnitude = std::sqrt(accepted * radiated_share);
  // Transmission phase of a one-port match: phase of (1 + Gamma).
  const double phase = std::arg(Complex(1.0, 0.0) + gamma);
  return std::polar(magnitude, phase);
}

double PatchElement::modulation_depth_db(double frequency_hz) const {
  const double off_mag =
      std::abs(feed_coupling(SwitchState::kOff, frequency_hz));
  const double on_mag =
      std::abs(feed_coupling(SwitchState::kOn, frequency_hz));
  assert(off_mag > 0.0);
  // Guard the fully-absorptive case; report a large-but-finite depth.
  constexpr double kMaxDepthDb = 60.0;
  if (on_mag <= 0.0) return kMaxDepthDb;
  // Two couplings per backscatter pass (receive element + re-radiating
  // element), hence the factor 2 on the amplitude ratio in dB.
  const double depth = 2.0 * phys::amplitude_ratio_to_db(off_mag / on_mag);
  return std::min(depth, kMaxDepthDb);
}

}  // namespace mmtag::em
