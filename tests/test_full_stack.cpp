// Full-stack integration tests across the newest layers: sessions on
// scenario timelines and 60 GHz retuning.
#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/channel/mobility.hpp"
#include "src/core/tag.hpp"
#include "src/core/van_atta.hpp"
#include "src/em/patch_element.hpp"
#include "src/em/resonator.hpp"
#include "src/em/switch_model.hpp"
#include "src/em/transmission_line.hpp"
#include "src/net/session.hpp"
#include "src/phy/rate_table.hpp"
#include "src/phys/units.hpp"
#include "src/reader/reader.hpp"
#include "src/sim/scenario.hpp"

namespace mmtag {
namespace {

// Stack slice 1: run a scenario, then ask the session layer what each
// timeline step is worth — connecting mobility to goodput.
TEST(FullStack, ScenarioTimelineFeedsSessionAnalysis) {
  sim::LinkScenario scenario(
      reader::MmWaveReader::prototype_at(core::Pose{{0.0, 0.0}, 0.0}),
      phy::RateTable::mmtag_standard(), sim::LinkScenario::Config{});
  scenario.set_tag_trajectory(std::make_shared<channel::LinearMobility>(
      channel::Vec2{0.7, 0.0}, channel::Vec2{0.2, 0.0}));
  const sim::ScenarioResult timeline = scenario.run(6.0, 202);

  const net::TransferSession session = net::TransferSession::mmtag_default();
  double best_goodput = 0.0;
  double last_goodput = -1.0;
  for (const sim::TimelineRecord& record : timeline.timeline) {
    reader::LinkReport link;
    link.received_power_dbm = record.received_power_dbm;
    const auto report = session.analyze(link, 1 << 20);
    best_goodput = std::max(best_goodput, report.goodput_bps);
    last_goodput = report.goodput_bps;
  }
  // Near start (~0.7 m) the link is gigabit-class: goodput > 300 Mbps.
  EXPECT_GT(best_goodput, 3e8);
  // After walking out to ~1.9 m it is slower but alive.
  EXPECT_GT(last_goodput, 0.0);
  EXPECT_LT(last_goodput, best_goodput);
}

// Stack slice 2: the footnote-3 retune — a 60 GHz Van Atta behaves like
// the 24 GHz one, scaled.
TEST(FullStack, SixtyGHzVanAttaRetune) {
  core::VanAttaArray::Config config;
  config.elements = 6;
  config.frequency_hz = 60e9;
  const em::TransmissionLine ref = em::TransmissionLine::mmtag_interconnect(0.0);
  const double lambda_g = ref.guided_wavelength_m(60e9);
  std::vector<em::TransmissionLine> lines(
      3, em::TransmissionLine::mmtag_interconnect(lambda_g));
  // Element retuned to 60 GHz with the same switch.
  const em::RfSwitch fet = em::RfSwitch::ce3520k3();
  const em::PatchResonator patch = em::PatchResonator::tuned_against_shunt(
      60e9, 71.6, 40.0, em::kFetOffCapacitanceF);
  const em::PatchElement element(patch, fet, 50.0);
  const core::VanAttaArray array(config, element, std::move(lines));

  // Same aperture logic: retro peak returns to source, beamwidth like the
  // 24 GHz prototype's (both are 6 elements at lambda/2 — beamwidth is
  // element-count-driven, not frequency-driven).
  const double peak = phys::rad_to_deg(
      array.peak_reradiation_direction_rad(phys::deg_to_rad(25.0)));
  EXPECT_NEAR(peak, 25.0, 4.0);
  EXPECT_NEAR(array.retro_beamwidth_deg(0.0),
              core::VanAttaArray::mmtag_prototype().retro_beamwidth_deg(0.0),
              1.5);
  // But the physical aperture is 2.5x smaller.
  EXPECT_NEAR(array.geometry().spacing_m() * 6.0,
              core::VanAttaArray::mmtag_prototype().geometry().spacing_m() *
                  6.0 / 2.5,
              1e-3);
}

}  // namespace
}  // namespace mmtag
