// One complete tag antenna element: patch resonator + shunt RF switch.
//
// This composes the resonator and switch models into the quantity the rest
// of the system consumes: per-state S11 (Fig. 6) and the per-state complex
// transfer amplitude that feeds the Van Atta array model. An element in the
// OFF (reflective) state accepts the incident wave into its feed — where the
// Van Atta line carries it to the mirrored element — while an element in the
// ON (shorted) state is detuned and accepts almost nothing.
#pragma once

#include "src/em/impedance.hpp"
#include "src/em/resonator.hpp"
#include "src/em/switch_model.hpp"

namespace mmtag::em {

class PatchElement {
 public:
  PatchElement(PatchResonator patch, RfSwitch rf_switch, double z0_ohm);

  /// The prototype element: mmTag patch + CE3520K3 switch against 50 ohm.
  [[nodiscard]] static PatchElement mmtag();

  /// Combined input impedance (patch in parallel with the switch shunt).
  [[nodiscard]] Complex impedance(SwitchState state,
                                  double frequency_hz) const;

  /// |S11| in dB in `state` at `frequency_hz` — the Fig. 6 observable.
  [[nodiscard]] double s11_db(SwitchState state, double frequency_hz) const;

  /// Complex amplitude coupled from the incident wave into the element feed
  /// in `state`. Magnitude^2 equals the accepted power fraction; the phase
  /// is the transmission phase through the matching.
  [[nodiscard]] Complex feed_coupling(SwitchState state,
                                      double frequency_hz) const;

  /// OOK modulation depth at `frequency_hz` [dB]: ratio of re-radiated power
  /// between OFF (reflective) and ON (absorptive) states. The full
  /// element->line->mirror->element path couples twice, so the depth is
  /// 2x the per-coupling difference.
  [[nodiscard]] double modulation_depth_db(double frequency_hz) const;

  [[nodiscard]] const PatchResonator& patch() const { return patch_; }

 private:
  PatchResonator patch_;
  RfSwitch switch_;
  double z0_ohm_;
};

}  // namespace mmtag::em
