#include "src/em/switch_model.hpp"

namespace mmtag::em {

namespace {

constexpr double kFetOnResistanceOhm = 15.0;  ///< Channel + contact.
constexpr double kFetOnInductanceH = 0.15e-9;  ///< Bond/via to ground.
constexpr double kFetGateChargeC = 1.5e-12;    ///< Per switching.
constexpr double kFetDriveVoltageV = 2.0;      ///< Gate drive swing.

}  // namespace

Complex RfSwitch::shunt_impedance(SwitchState state,
                                  double frequency_hz) const {
  switch (state) {
    case SwitchState::kOn:
      // Channel resistance in series with the path-to-ground inductance.
      return series(resistor(kFetOnResistanceOhm),
                    inductor(kFetOnInductanceH, frequency_hz));
    case SwitchState::kOff:
      // Only the tiny off capacitance loads the patch.
      return capacitor(kFetOffCapacitanceF, frequency_hz);
  }
  // Unreachable for a valid enum; keep the compiler satisfied.
  return Complex(0.0, 0.0);
}

double RfSwitch::energy_per_toggle_j() const {
  return kFetGateChargeC * kFetDriveVoltageV;
}

}  // namespace mmtag::em
