// Two-state model of the tag's RF switch (CEL CE3520K3 FET, paper Sec. 7).
//
// The switch sits in shunt between a patch element and ground (paper Fig. 4):
//
//   * OFF — the FET presents only a tiny drain-source capacitance; the patch
//     stays tuned and the element reflects normally ("data 0").
//   * ON  — the FET shorts the patch to ground through its on-resistance and
//     bond/via inductance; the element detunes and stops re-radiating
//     ("data 1").
//
// The observable consequences are the two S11 curves of Fig. 6 and the OOK
// modulation depth. The energy model (gate charge * drive voltage per
// toggle) feeds experiment C4 (energy per bit).
#pragma once

#include "src/em/impedance.hpp"

namespace mmtag::em {

/// Logical state of the shunt FET.
enum class SwitchState { kOff, kOn };

/// Drain-source off capacitance of the CE3520K3-class FET [F]: the load
/// the patch is tuned against (em::PatchElement::mmtag).
inline constexpr double kFetOffCapacitanceF = 25e-15;

/// Shunt RF switch: impedance it adds across the patch in each state.
class RfSwitch {
 public:
  /// The CE3520K3-class FET the paper uses, with datasheet-flavoured
  /// values.
  [[nodiscard]] static RfSwitch ce3520k3() { return RfSwitch(); }

  /// Shunt impedance presented by the switch in `state` at `frequency_hz`.
  [[nodiscard]] Complex shunt_impedance(SwitchState state,
                                        double frequency_hz) const;

  /// Energy drawn from the control line per on/off transition [J]:
  /// E = Qg * Vdrive. This is the only energy the tag spends per bit edge.
  [[nodiscard]] double energy_per_toggle_j() const;
};

}  // namespace mmtag::em
