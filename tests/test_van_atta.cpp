// Van Atta array tests — the paper's core contribution (Sec. 5.2).
//
// The headline property: the array re-radiates toward the direction of
// arrival for *any* incidence angle (Eq. 5 vs Eq. 3), with no active parts.
#include "src/core/van_atta.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/antenna/mutual_coupling.hpp"
#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::core {
namespace {

TEST(VanAtta, PrototypeShape) {
  const VanAttaArray array = VanAttaArray::mmtag_prototype();
  EXPECT_EQ(array.size(), 6);
  EXPECT_NEAR(array.geometry().spacing_m(),
              phys::wavelength_m(phys::kMmTagCarrierHz) / 2.0, 1e-12);
}

TEST(VanAtta, PairingIsMirrored) {
  const VanAttaArray array = VanAttaArray::mmtag_prototype();
  EXPECT_EQ(array.pair_of(0), 5);
  EXPECT_EQ(array.pair_of(2), 3);
  EXPECT_EQ(array.pair_of(5), 0);
}

TEST(VanAtta, PrototypeBeamwidthNearPaperTwentyDegrees) {
  // Paper Sec. 7: "6 antenna elements which creates a directional reflector
  // with 20 degree beam width". The exact closed form gives 16.9; accept
  // the paper's rounded figure generously.
  const VanAttaArray array = VanAttaArray::mmtag_prototype();
  const double bw = array.retro_beamwidth_deg(0.0);
  EXPECT_GT(bw, 14.0);
  EXPECT_LT(bw, 22.0);
}

TEST(VanAtta, SwitchesKillTheReflection) {
  // Paper Sec. 6: switches on => "the tag does not receive nor reflect".
  VanAttaArray array = VanAttaArray::mmtag_prototype();
  array.set_all_switches(em::SwitchState::kOff);
  const double reflect_db = array.monostatic_gain_db(0.0);
  array.set_all_switches(em::SwitchState::kOn);
  const double absorb_db = array.monostatic_gain_db(0.0);
  EXPECT_GT(reflect_db - absorb_db, 8.0);
}

TEST(VanAtta, SingleSwitchFailureDegradesGracefully) {
  // Failure injection: one stuck-on FET costs part of the aperture but
  // must not destroy retrodirectivity.
  VanAttaArray array = VanAttaArray::mmtag_prototype();
  const double healthy_db = array.monostatic_gain_db(0.0);
  array.set_switch(2, em::SwitchState::kOn);
  EXPECT_EQ(array.switch_state(2), em::SwitchState::kOn);
  const double degraded_db = array.monostatic_gain_db(0.0);
  EXPECT_LT(degraded_db, healthy_db);
  EXPECT_GT(degraded_db, healthy_db - 10.0);
  const double peak =
      array.peak_reradiation_direction_rad(phys::deg_to_rad(20.0));
  EXPECT_NEAR(phys::rad_to_deg(peak), 20.0, 5.0);
}

TEST(VanAtta, GainScalesWithElementCountSquared) {
  // Monostatic field ~ N  =>  power gain ~ N^2: +6 dB per doubling. This is
  // the knob behind "range and data-rate ... can be further increased by
  // using more antenna elements" (paper Sec. 8).
  const double g6 = VanAttaArray::with_elements(6).monostatic_gain_db(0.0);
  const double g12 = VanAttaArray::with_elements(12).monostatic_gain_db(0.0);
  const double g24 = VanAttaArray::with_elements(24).monostatic_gain_db(0.0);
  EXPECT_NEAR(g12 - g6, 6.0, 0.3);
  EXPECT_NEAR(g24 - g12, 6.0, 0.3);
}

TEST(VanAtta, BeamwidthShrinksWithElements) {
  EXPECT_GT(VanAttaArray::with_elements(4).retro_beamwidth_deg(0.0),
            VanAttaArray::with_elements(8).retro_beamwidth_deg(0.0));
  EXPECT_GT(VanAttaArray::with_elements(8).retro_beamwidth_deg(0.0),
            VanAttaArray::with_elements(16).retro_beamwidth_deg(0.0));
}

TEST(VanAtta, OddElementCountSelfPairsCentre) {
  const VanAttaArray array = VanAttaArray::with_elements(5);
  EXPECT_EQ(array.pair_of(2), 2);  // Centre element self-paired.
  // Retrodirectivity still holds.
  const double peak =
      array.peak_reradiation_direction_rad(phys::deg_to_rad(25.0));
  EXPECT_NEAR(phys::rad_to_deg(peak), 25.0, 3.0);
}

TEST(VanAtta, BistaticPeakIsNotSpecular) {
  // A mirror would send 30 deg -> -30 deg. The Van Atta must NOT.
  const VanAttaArray array = VanAttaArray::mmtag_prototype();
  const double incidence = phys::deg_to_rad(30.0);
  const double retro = array.bistatic_gain_db(incidence, incidence);
  const double specular = array.bistatic_gain_db(incidence, -incidence);
  EXPECT_GT(retro, specular + 10.0);
}

TEST(VanAtta, MismatchedLineLengthsBreakRetrodirectivity) {
  // Eq. (4) requires equal line phases; deliberately unequal lines must
  // scatter the beam. Build 6 elements with pair lines of very different
  // lengths.
  VanAttaArray::Config config;
  config.elements = 6;
  config.frequency_hz = phys::kMmTagCarrierHz;
  std::vector<em::TransmissionLine> lines;
  const em::TransmissionLine ref = em::TransmissionLine::mmtag_interconnect(0.0);
  const double lambda_g = ref.guided_wavelength_m(config.frequency_hz);
  // Phases spread over ~2/3 turn between pairs.
  lines.push_back(em::TransmissionLine::mmtag_interconnect(lambda_g));
  lines.push_back(em::TransmissionLine::mmtag_interconnect(lambda_g * 1.33));
  lines.push_back(em::TransmissionLine::mmtag_interconnect(lambda_g * 1.66));
  VanAttaArray broken(config, em::PatchElement::mmtag(), std::move(lines));

  const VanAttaArray good = VanAttaArray::mmtag_prototype();
  EXPECT_LT(broken.monostatic_gain_db(0.0),
            good.monostatic_gain_db(0.0) - 3.0);
}

TEST(VanAtta, CommonExtraLinePhaseIsHarmless) {
  // Any *common* phi drops out of the retro property (it is a global phase
  // in Eq. 5). Two prototypes with different but equal-per-pair line
  // lengths must have identical monostatic |gain|.
  VanAttaArray::Config config;
  config.elements = 6;
  config.frequency_hz = phys::kMmTagCarrierHz;
  const em::TransmissionLine ref = em::TransmissionLine::mmtag_interconnect(0.0);
  const double lambda_g = ref.guided_wavelength_m(config.frequency_hz);

  // Compare loss-free variants so only phase differs.
  const auto make = [&](double length) {
    em::TransmissionLine::Params p;
    p.attenuation_db_per_m = 0.0;
    p.length_m = length;
    std::vector<em::TransmissionLine> lines(3, em::TransmissionLine(p));
    return VanAttaArray(config, em::PatchElement::mmtag(), std::move(lines));
  };
  const VanAttaArray a = make(lambda_g * 0.25);
  const VanAttaArray b = make(lambda_g * 0.8);
  for (const double deg : {0.0, 20.0, 40.0}) {
    const double theta = phys::deg_to_rad(deg);
    EXPECT_NEAR(a.monostatic_gain_db(theta), b.monostatic_gain_db(theta),
                1e-6);
  }
}

// off_gain_bound_db must cover the off-state gain toward every angle:
// a link evaluation skips a path on it.
void expect_bound_covers_off_gain(const VanAttaArray& array) {
  const double bound = array.off_gain_bound_db();
  ASSERT_TRUE(std::isfinite(bound));
  constexpr int kSteps = 3600;
  for (int i = 0; i <= kSteps; ++i) {
    const double theta = -phys::kPi + 2.0 * phys::kPi * i / kSteps;
    EXPECT_GE(bound, array.monostatic_state_gains_db(theta).off_db) << theta;
  }
  for (const double edge : {-phys::kPi / 2.0, phys::kPi / 2.0}) {
    for (const double theta : {std::nextafter(edge, 0.0), edge,
                               std::nextafter(edge, 2.0 * edge)}) {
      EXPECT_GE(bound, array.monostatic_state_gains_db(theta).off_db)
          << theta;
    }
  }
}

TEST(VanAtta, OffGainBoundCoversEveryAngle) {
  for (const int n : {1, 2, 5, 6, 24, 40}) {
    SCOPED_TRACE(n);
    const VanAttaArray array = VanAttaArray::with_elements(n);
    expect_bound_covers_off_gain(array);
    // Equal lines add in phase at boresight, where the triangle
    // inequality is an equality: only the margin is left.
    EXPECT_LT(array.off_gain_bound_db() -
                  array.monostatic_state_gains_db(0.0).off_db,
              1e-5);
  }
  // Unequal pair lines: their losses and phases differ, and the gain
  // falls well below the bound.
  VanAttaArray::Config config;
  config.elements = 6;
  config.frequency_hz = phys::kMmTagCarrierHz;
  const double lambda_g = em::TransmissionLine::mmtag_interconnect(0.0)
                              .guided_wavelength_m(config.frequency_hz);
  std::vector<em::TransmissionLine> lines;
  for (const double scale : {1.0, 1.33, 2.9}) {
    lines.push_back(em::TransmissionLine::mmtag_interconnect(lambda_g * scale));
  }
  expect_bound_covers_off_gain(
      VanAttaArray(config, em::PatchElement::mmtag(), std::move(lines)));
}

TEST(VanAtta, OffGainBoundIsInfiniteWhileCoupled) {
  VanAttaArray array = VanAttaArray::with_elements(6);
  const double uncoupled = array.off_gain_bound_db();
  array.set_mutual_coupling(antenna::CouplingMatrix::typical_patch(6));
  EXPECT_EQ(array.off_gain_bound_db(),
            std::numeric_limits<double>::infinity());
  array.clear_mutual_coupling();
  EXPECT_EQ(array.off_gain_bound_db(), uncoupled);
}

// monostatic_state_gains_db must be exactly the copy-and-toggle it
// replaces: the same factors multiplied in the same order.
void expect_state_gains_match_toggled_copy(const VanAttaArray& array) {
  for (int deg = -100; deg <= 100; deg += 5) {
    const double theta = phys::deg_to_rad(deg);
    const StateGainsDb gains = array.monostatic_state_gains_db(theta);
    VanAttaArray probe = array;
    probe.set_all_switches(em::SwitchState::kOff);
    EXPECT_EQ(gains.off_db, probe.monostatic_gain_db(theta)) << deg;
    probe.set_all_switches(em::SwitchState::kOn);
    EXPECT_EQ(gains.on_db, probe.monostatic_gain_db(theta)) << deg;
  }
}

TEST(VanAtta, StateGainsEqualToggledCopyBitForBit) {
  // 40 elements run past the stack buffers onto the heap.
  for (const int n : {1, 5, 6, 40}) {
    SCOPED_TRACE(n);
    const VanAttaArray plain = VanAttaArray::with_elements(n);
    expect_state_gains_match_toggled_copy(plain);
    VanAttaArray coupled = plain;
    coupled.set_mutual_coupling(antenna::CouplingMatrix::typical_patch(n));
    expect_state_gains_match_toggled_copy(coupled);
    VanAttaArray stuck = plain;
    stuck.set_switch(n / 2, em::SwitchState::kOn);
    expect_state_gains_match_toggled_copy(stuck);
    VanAttaArray absorbing = plain;
    absorbing.set_all_switches(em::SwitchState::kOn);
    expect_state_gains_match_toggled_copy(absorbing);
  }
}

TEST(VanAtta, CopiesEvaluateIdenticallyToTheirSource) {
  // mmtag_prototype() hands out copies of one array, which share its
  // carrier terms; given their own switches and coupling they evaluate as
  // a freshly built array given the same, and leave the next copy as
  // built.
  VanAttaArray fresh =
      VanAttaArray::with_elements(phys::kMmTagPrototypeElements);
  VanAttaArray copy = VanAttaArray::mmtag_prototype();
  for (VanAttaArray* array : {&fresh, &copy}) {
    array->set_switch(1, em::SwitchState::kOn);
    array->set_mutual_coupling(antenna::CouplingMatrix::typical_patch(6));
  }
  for (const double frequency_hz : {phys::kMmTagCarrierHz, 23.9e9}) {
    for (int deg = -60; deg <= 60; deg += 15) {
      const double theta = phys::deg_to_rad(deg);
      const Complex a = fresh.reradiated_field(theta, -theta, frequency_hz);
      const Complex b = copy.reradiated_field(theta, -theta, frequency_hz);
      EXPECT_EQ(a.real(), b.real()) << deg;
      EXPECT_EQ(a.imag(), b.imag()) << deg;
    }
  }
  const VanAttaArray next = VanAttaArray::mmtag_prototype();
  EXPECT_EQ(next.switch_state(1), em::SwitchState::kOff);
  EXPECT_EQ(next.monostatic_gain_db(0.2),
            VanAttaArray::with_elements(phys::kMmTagPrototypeElements)
                .monostatic_gain_db(0.2));
}

TEST(VanAtta, LinkSideGainMatchesElementPlusArray) {
  const VanAttaArray array = VanAttaArray::mmtag_prototype();
  EXPECT_NEAR(array.link_side_gain_dbi(),
              5.0 + phys::ratio_to_db(6.0), 1e-9);
}

// THE core property (paper Eq. 5): for any incidence angle in the visible
// region, the re-radiated beam peaks back at the incidence angle.
class RetrodirectivityTest : public ::testing::TestWithParam<double> {};

TEST_P(RetrodirectivityTest, PeakReturnsToSource) {
  const double incidence_deg = GetParam();
  const VanAttaArray array = VanAttaArray::mmtag_prototype();
  const double peak_rad = array.peak_reradiation_direction_rad(
      phys::deg_to_rad(incidence_deg));
  // The element pattern skews the peak slightly toward boresight at wide
  // angles (about an eighth of the incidence angle at 60 degrees); within
  // that skew the beam still covers the reader, since the retro lobe is
  // ~17 degrees wide.
  const double tolerance_deg = 1.0 + 0.14 * std::abs(incidence_deg);
  EXPECT_NEAR(phys::rad_to_deg(peak_rad), incidence_deg, tolerance_deg);
}

INSTANTIATE_TEST_SUITE_P(Angles, RetrodirectivityTest,
                         ::testing::Values(-60.0, -45.0, -30.0, -15.0, -5.0,
                                           0.0, 5.0, 15.0, 30.0, 45.0,
                                           60.0));

// Property: the monostatic response stays strong across the field of view
// (within 13 dB of boresight out to +/-45 deg), which is what "solves the
// beam alignment problem" (the fixed-beam baseline drops > 25 dB by 15
// degrees — see test_baselines.cpp).
class MonostaticFlatnessTest : public ::testing::TestWithParam<double> {};

TEST_P(MonostaticFlatnessTest, StaysWithinWindow) {
  const double deg = GetParam();
  const VanAttaArray array = VanAttaArray::mmtag_prototype();
  const double boresight = array.monostatic_gain_db(0.0);
  const double here = array.monostatic_gain_db(phys::deg_to_rad(deg));
  EXPECT_GT(here, boresight - 13.0);
}

INSTANTIATE_TEST_SUITE_P(Angles, MonostaticFlatnessTest,
                         ::testing::Values(-45.0, -30.0, -15.0, 15.0, 30.0,
                                           45.0));

}  // namespace
}  // namespace mmtag::core
