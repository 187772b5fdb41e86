// Harvested-energy storage: the capacitor behind the batteryless claim.
//
// Experiment C4 shows indoor light sustains ~30 Mbps of *continuous*
// modulation — yet the paper claims Gbps. The two reconcile through duty
// cycling: a storage capacitor charges slowly from the harvester and
// discharges fast during a Gbps burst. This model computes burst length,
// recharge time, sustainable duty cycle and the resulting *effective*
// throughput, turning "batteryless at gigabit speeds" into checkable
// numbers.
#pragma once

#include "src/core/energy.hpp"

namespace mmtag::core {

/// The prototype's storage: a 100 uF capacitor charged up to the harvester
/// regulator's 3.3 V ceiling and drained down to the FET gate drive's
/// 1.8 V dropout floor, leaking 1 uW through the capacitor and regulator.
class EnergyHarvester {
 public:
  /// Storage fed by an average `harvest_power_w` >= 0 [W].
  explicit EnergyHarvester(double harvest_power_w);

  /// Prototype storage fed by `source` through the 60 x 45 mm collector.
  [[nodiscard]] static EnergyHarvester mmtag_with(HarvestSource source);

  /// Usable energy between the voltage rails [J]: C (Vmax^2 - Vmin^2) / 2.
  [[nodiscard]] double usable_energy_j() const;

  /// Time to charge from the floor to the ceiling with no load [s].
  /// Infinity when harvest does not exceed leakage.
  [[nodiscard]] double recharge_time_s() const;

  /// Longest burst a load of `load_power_w` can draw before the cap sags
  /// to the floor [s]. Infinity when the harvester covers the load.
  [[nodiscard]] double max_burst_s(double load_power_w) const;

  /// Sustainable duty cycle for bursts of `load_power_w`:
  /// burst / (burst + recharge), in (0, 1].
  [[nodiscard]] double duty_cycle(double load_power_w) const;

  /// Effective long-run throughput when modulating at `bit_rate_bps`
  /// during bursts, using `energy` for the per-bit cost [bit/s].
  [[nodiscard]] double effective_throughput_bps(
      double bit_rate_bps, const TagEnergyModel& energy) const;

 private:
  double harvest_power_w_;
};

}  // namespace mmtag::core
