// Uniform-linear-array tests (src/antenna/ula) — validates the paper's
// Eqs. (1)-(3) directly.
#include "src/antenna/ula.hpp"

#include <gtest/gtest.h>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::antenna {
namespace {

constexpr double kF = 24e9;

TEST(Ula, HalfWavelengthSpacing) {
  const auto array = UniformLinearArray::half_wavelength(6, kF);
  EXPECT_NEAR(array.spacing_m(), phys::wavelength_m(kF) / 2.0, 1e-12);
  EXPECT_EQ(array.size(), 6);
}

TEST(Ula, ElementPhaseMatchesPaperEq2) {
  // d = lambda/2 => psi = pi * sin(theta) (paper Eq. 2).
  const auto array = UniformLinearArray::half_wavelength(6, kF);
  for (const double deg : {-60.0, -30.0, 0.0, 17.0, 45.0}) {
    const double theta = phys::deg_to_rad(deg);
    EXPECT_NEAR(array.element_phase_rad(theta),
                phys::kPi * std::sin(theta), 1e-9);
  }
}

TEST(Ula, BroadsideUniformWeightsGainIsN) {
  const auto array = UniformLinearArray::half_wavelength(6, kF);
  const auto w = uniform_weights(6);
  EXPECT_NEAR(phys::ratio_to_db(std::norm(array.array_factor(w, 0.0))),
              phys::ratio_to_db(6.0), 1e-9);
}

TEST(Ula, SingleElementIsOmni) {
  const auto array = UniformLinearArray::half_wavelength(1, kF);
  const auto w = uniform_weights(1);
  for (const double theta : {-1.0, 0.0, 0.7}) {
    EXPECT_NEAR(phys::ratio_to_db(std::norm(array.array_factor(w, theta))),
                0.0, 1e-9);
  }
}

TEST(Ula, PrototypeBeamwidthNearPaperFigure)
{
  // 6 elements at lambda/2: closed form 0.886 * 2 / 6 rad = 16.9 deg; the
  // paper rounds this to "20 degree beam width".
  const auto array = UniformLinearArray::half_wavelength(6, kF);
  EXPECT_NEAR(array.broadside_hpbw_estimate_deg(), 16.9, 0.2);
  const auto w = uniform_weights(6);
  const double measured = array.half_power_beamwidth_deg(w, 0.0);
  EXPECT_NEAR(measured, array.broadside_hpbw_estimate_deg(), 1.5);
}

TEST(Ula, DirectivityGrowsWithN) {
  const auto w4 = uniform_weights(4);
  const auto w16 = uniform_weights(16);
  const auto a4 = UniformLinearArray::half_wavelength(4, kF);
  const auto a16 = UniformLinearArray::half_wavelength(16, kF);
  const double d4 = a4.directivity_db(w4);
  const double d16 = a16.directivity_db(w16);
  // 4x the elements: ~6 dB more directivity (2-D azimuth definition).
  EXPECT_NEAR(d16 - d4, 6.0, 1.0);
}

// Property: HPBW shrinks like ~1/N across array sizes (paper Sec. 8: more
// elements -> narrower beam -> more range).
class UlaBeamwidthTest : public ::testing::TestWithParam<int> {};

TEST_P(UlaBeamwidthTest, BeamwidthTracksClosedForm) {
  const int n = GetParam();
  const auto array = UniformLinearArray::half_wavelength(n, kF);
  const auto w = uniform_weights(n);
  const double measured = array.half_power_beamwidth_deg(w, 0.0);
  const double estimate = array.broadside_hpbw_estimate_deg();
  EXPECT_NEAR(measured / estimate, 1.0, 0.12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, UlaBeamwidthTest,
                         ::testing::Values(4, 6, 8, 12, 16, 24, 32));

}  // namespace
}  // namespace mmtag::antenna
