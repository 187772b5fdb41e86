// Free-space propagation tests (src/phys/pathloss).
#include "src/phys/pathloss.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::phys {
namespace {

TEST(PathLoss, KnownValueAt24GHzOneMeter) {
  // FSPL(1 m, 24 GHz) = 20 log10(4*pi*1/0.012491) = 60.05 dB.
  EXPECT_NEAR(free_space_path_loss_db(1.0, 24e9), 60.05, 0.05);
}

TEST(PathLoss, TwentyDbPerDecadeOneWay) {
  const double l1 = free_space_path_loss_db(1.0, 24e9);
  const double l10 = free_space_path_loss_db(10.0, 24e9);
  EXPECT_NEAR(l10 - l1, 20.0, 1e-9);
}

TEST(PathLoss, HigherFrequencyLosesMoreAtFixedGain) {
  // The "mmWave decays quickly" effect: at equal antenna *gain*, 24 GHz
  // loses ~28 dB more than 915 MHz over the same distance.
  const double mm = free_space_path_loss_db(3.0, 24e9);
  const double uhf = free_space_path_loss_db(3.0, 915e6);
  EXPECT_NEAR(mm - uhf, 20.0 * std::log10(24e9 / 915e6), 1e-9);
}

TEST(PathLoss, GainLinearMatchesDb) {
  const double db = free_space_path_loss_db(2.5, 24e9);
  EXPECT_NEAR(free_space_gain_linear(2.5, 24e9), db_to_ratio(-db), 1e-15);
}

TEST(Friis, ComposesTerms) {
  const double p = friis_received_power_dbm(13.0, 20.0, 20.0, 1.0, 24e9);
  EXPECT_NEAR(p, 13.0 + 40.0 - 60.05, 0.05);
}

// Property: FSPL is strictly increasing in both distance and frequency.
class FsplMonotoneTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(FsplMonotoneTest, Monotone) {
  const auto [d, f] = GetParam();
  EXPECT_LT(free_space_path_loss_db(d, f),
            free_space_path_loss_db(d * 1.5, f));
  EXPECT_LT(free_space_path_loss_db(d, f),
            free_space_path_loss_db(d, f * 1.5));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FsplMonotoneTest,
    ::testing::Values(std::pair{0.1, 915e6}, std::pair{1.0, 2.4e9},
                      std::pair{3.0, 24e9}, std::pair{10.0, 60e9}));

}  // namespace
}  // namespace mmtag::phys
