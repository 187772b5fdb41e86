// Self-interference model tests (src/reader/self_interference) — paper
// Sec. 9's full-duplex discussion, quantified (experiment E3).
#include "src/reader/self_interference.hpp"

#include <gtest/gtest.h>

#include "src/phys/constants.hpp"

namespace mmtag::reader {
namespace {

TEST(SelfInterference, ResidualSubtractsSuppression) {
  SelfInterferenceModel::Params p;
  p.antenna_isolation_db = 60.0;
  const SelfInterferenceModel model(p);
  EXPECT_DOUBLE_EQ(model.residual_dbm(13.0), 13.0 - 60.0);
}

TEST(SelfInterference, CancellationLimitCaps) {
  SelfInterferenceModel::Params p;
  p.antenna_isolation_db = 160.0;
  const SelfInterferenceModel model(p);
  // Phase noise bounds total suppression at 90 dB, not 160.
  EXPECT_DOUBLE_EQ(model.residual_dbm(13.0), 13.0 - 90.0);
}

TEST(SelfInterference, SinrReducesToSnrWhenIsolated) {
  SelfInterferenceModel::Params p;
  p.antenna_isolation_db = 90.0;
  const SelfInterferenceModel model(p);
  const auto noise = phys::NoiseModel::mmtag_reader();
  // A 13 dBm carrier leaves a -77 dBm residual against the -95.8 dBm floor
  // in 20 MHz: SI still dominates. A -30 dBm carrier's residual sits
  // 24 dB under the floor, so the SINR is the thermal SNR.
  const double sinr = model.sinr_db(-70.0, 13.0, 20e6, noise);
  const double snr = -70.0 - noise.power_dbm(20e6);
  EXPECT_NEAR(model.sinr_db(-70.0, -30.0, 20e6, noise), snr, 0.1);
  EXPECT_LT(sinr, snr);
}

TEST(SelfInterference, MoreIsolationMonotonicallyHelps) {
  const auto noise = phys::NoiseModel::mmtag_reader();
  double previous = -1e9;
  for (double isolation = 20.0; isolation <= 80.0; isolation += 10.0) {
    SelfInterferenceModel::Params p;
    p.antenna_isolation_db = isolation;
    const SelfInterferenceModel model(p);
    const double sinr = model.sinr_db(-70.0, 13.0, 2e9, noise);
    EXPECT_GT(sinr, previous);
    previous = sinr;
  }
}

TEST(SelfInterference, WeakIsolationKillsGigabit) {
  // With only 30 dB of isolation the residual carrier (-17 dBm) buries a
  // -60 dBm tag: no tier is feasible.
  SelfInterferenceModel::Params p;
  p.antenna_isolation_db = 30.0;
  const SelfInterferenceModel model(p);
  const auto rates = phy::RateTable::mmtag_standard();
  EXPECT_DOUBLE_EQ(model.achievable_rate_bps(-60.0, 13.0, rates), 0.0);
}

TEST(SelfInterference, StrongIsolationRestoresGigabit) {
  SelfInterferenceModel::Params p;
  p.antenna_isolation_db = 90.0;
  const SelfInterferenceModel model(p);
  const auto rates = phy::RateTable::mmtag_standard();
  EXPECT_DOUBLE_EQ(model.achievable_rate_bps(-60.0, 13.0, rates), 1e9);
}

// Property: achievable rate under SI never exceeds the thermal-only rate.
class SiRateBoundTest : public ::testing::TestWithParam<double> {};

TEST_P(SiRateBoundTest, NeverBeatsThermalLimit) {
  const double isolation = GetParam();
  SelfInterferenceModel::Params p;
  p.antenna_isolation_db = isolation;
  const SelfInterferenceModel model(p);
  const auto rates = phy::RateTable::mmtag_standard();
  for (const double tag_dbm : {-50.0, -65.0, -80.0}) {
    EXPECT_LE(model.achievable_rate_bps(tag_dbm, 13.0, rates),
              rates.achievable_rate_bps(tag_dbm));
  }
}

INSTANTIATE_TEST_SUITE_P(Isolations, SiRateBoundTest,
                         ::testing::Values(20.0, 40.0, 60.0, 80.0, 100.0));

}  // namespace
}  // namespace mmtag::reader
