// Batteryless sensor with burst uploads: the full energy story end to end.
//
// A vibration-monitoring tag on a machine harvests from the machine's own
// vibration (~4 uW/cm^2), buffers samples, and uploads in gigabit bursts
// whenever its storage capacitor fills. The example walks one duty cycle:
// charge -> burst (fragmented, ARQ-checked transfer) -> recharge, and
// reports the sustainable long-run sensor data rate — the honest version
// of "batteryless wireless networking at gigabit speeds".
#include <cmath>
#include <cstdio>

#include "src/channel/environment.hpp"
#include "src/core/harvester.hpp"
#include "src/core/tag.hpp"
#include "src/net/session.hpp"
#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"
#include "src/reader/reader.hpp"
#include "src/sim/table.hpp"

int main() {
  using namespace mmtag;

  // Link: reader on the wall, tag on the machine 6 ft away.
  const core::MmTag tag = core::MmTag::prototype_at(
      core::Pose{{0.0, 0.0}, 0.0}, 321);
  const auto reader = reader::MmWaveReader::prototype_at(
      core::Pose{{phys::feet_to_m(6.0), 0.0}, phys::kPi});
  const auto rates = phy::RateTable::mmtag_standard();
  const auto link =
      reader.evaluate_link(tag, channel::Environment{}, rates);
  std::printf("link: %.1f dBm -> %s tier\n", link.received_power_dbm,
              sim::Table::fmt_rate(link.achievable_rate_bps).c_str());

  // Energy: vibration harvesting into the 100 uF cap.
  const core::TagEnergyModel energy = core::TagEnergyModel::mmtag_prototype();
  const core::EnergyHarvester cap =
      core::EnergyHarvester::mmtag_with(core::HarvestSource::kVibration);
  const double burst_load_w =
      energy.modulation_power_w(link.achievable_rate_bps);
  const double burst_s = cap.max_burst_s(burst_load_w);
  const double recharge_s = cap.recharge_time_s();
  std::printf("burst budget: %.1f ms of %s modulation, then %.1f s of "
              "recharge (duty %.2f%%)\n",
              burst_s * 1e3,
              sim::Table::fmt_rate(link.achievable_rate_bps).c_str(),
              recharge_s, 100.0 * cap.duty_cycle(burst_load_w));

  // Transfer: how much sensor data one burst moves, ARQ and framing paid.
  const net::TransferSession session = net::TransferSession::mmtag_default();
  const net::SessionReport report = session.analyze(link, 1);  // Per-bit.
  const double burst_payload_bits = report.goodput_bps * burst_s;
  std::printf("one burst delivers %.1f kB of payload (goodput %s)\n",
              burst_payload_bits / 8.0 / 1e3,
              sim::Table::fmt_rate(report.goodput_bps).c_str());

  // Long-run sensor budget.
  const double cycle_s = burst_s + recharge_s;
  const double sustained_bps = burst_payload_bits / cycle_s;
  std::printf("sustained sensor data rate: %s\n",
              sim::Table::fmt_rate(sustained_bps).c_str());

  // Sanity: a 3-axis accelerometer at 10 kHz x 16 bit = 480 kbps.
  const double sensor_demand_bps = 3.0 * 10e3 * 16.0;
  std::printf("3-axis 10 kHz accelerometer needs %s -> %s\n",
              sim::Table::fmt_rate(sensor_demand_bps).c_str(),
              sustained_bps >= sensor_demand_bps
                  ? "sustainable, batteryless"
                  : "needs a bigger harvester or duty-cycled sensing");
  return 0;
}
