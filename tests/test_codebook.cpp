// Beam-codebook tests (src/antenna/codebook).
#include "src/antenna/codebook.hpp"

#include <gtest/gtest.h>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::antenna {
namespace {

TEST(UniformCodebook, CoversSectorWithoutGaps) {
  const double lo = phys::deg_to_rad(-60.0);
  const double hi = phys::deg_to_rad(60.0);
  const auto beams = uniform_codebook(lo, hi, 18.0);
  ASSERT_FALSE(beams.empty());
  // Every direction in the sector is within half a beamwidth of some beam.
  for (double deg = -60.0; deg <= 60.0; deg += 1.0) {
    const double theta = phys::deg_to_rad(deg);
    bool covered = false;
    for (const Beam& beam : beams) {
      if (std::abs(theta - beam.boresight_rad) <=
          phys::deg_to_rad(beam.width_deg) / 2.0 + 1e-9) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "uncovered at " << deg << " deg";
  }
}

TEST(UniformCodebook, BeamCountMatchesSectorOverWidth) {
  const auto beams =
      uniform_codebook(phys::deg_to_rad(-45.0), phys::deg_to_rad(45.0), 18.0);
  EXPECT_EQ(static_cast<int>(beams.size()), 5);
}

TEST(UniformCodebook, BoresightsAreSortedAndInside) {
  const double lo = phys::deg_to_rad(-60.0);
  const double hi = phys::deg_to_rad(60.0);
  const auto beams = uniform_codebook(lo, hi, 10.0);
  for (std::size_t i = 0; i < beams.size(); ++i) {
    EXPECT_GT(beams[i].boresight_rad, lo);
    EXPECT_LT(beams[i].boresight_rad, hi);
    if (i > 0) {
      EXPECT_GT(beams[i].boresight_rad, beams[i - 1].boresight_rad);
    }
  }
}

// Property: for any beamwidth, adjacent uniform beams are spaced by at most
// one beamwidth (no holes).
class CodebookSpacingTest : public ::testing::TestWithParam<double> {};

TEST_P(CodebookSpacingTest, AdjacentSpacingWithinWidth) {
  const double width_deg = GetParam();
  const auto beams = uniform_codebook(phys::deg_to_rad(-60.0),
                                      phys::deg_to_rad(60.0), width_deg);
  for (std::size_t i = 1; i < beams.size(); ++i) {
    const double gap_deg = phys::rad_to_deg(beams[i].boresight_rad -
                                            beams[i - 1].boresight_rad);
    EXPECT_LE(gap_deg, width_deg + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, CodebookSpacingTest,
                         ::testing::Values(5.0, 10.0, 17.0, 18.0, 30.0,
                                           45.0));

}  // namespace
}  // namespace mmtag::antenna
