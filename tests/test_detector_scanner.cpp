// Power-detector and beam-scanner tests (src/reader/detector,
// src/reader/scanner).
#include <cmath>

#include <gtest/gtest.h>

#include "src/antenna/codebook.hpp"
#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"
#include "src/reader/detector.hpp"
#include "src/reader/scanner.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::reader {
namespace {

TEST(Detector, NoiseFloorMatchesModel) {
  const PowerDetector detector = PowerDetector::mmtag_default();
  EXPECT_NEAR(detector.noise_floor_dbm(), -95.8, 0.3);  // 20 MHz RBW.
}

TEST(Detector, MeasurementTracksTruthAtHighSnr) {
  const PowerDetector detector = PowerDetector::mmtag_default();
  auto rng = sim::make_rng(21);
  double sum = 0.0;
  constexpr int kReps = 200;
  for (int i = 0; i < kReps; ++i) {
    sum += detector.measure_dbm(-60.0, rng);
  }
  EXPECT_NEAR(sum / kReps, -60.0, 0.5);
}

TEST(Detector, DeepSignalReadsNearFloor) {
  const PowerDetector detector = PowerDetector::mmtag_default();
  auto rng = sim::make_rng(22);
  // -150 dBm is far below the -95.8 dBm floor: the readout is the floor.
  const double measured = detector.measure_dbm(-150.0, rng);
  EXPECT_NEAR(measured, detector.noise_floor_dbm(), 3.0);
}

TEST(Detector, DetectsModulationAboveMargin) {
  const PowerDetector detector = PowerDetector::mmtag_default();
  EXPECT_TRUE(detector.detects_modulation(-70.0, -90.0));
  // Excursion below the floor: undetectable.
  EXPECT_FALSE(detector.detects_modulation(-99.0, -99.5));
  // Absorb stronger than reflect (nonsense input): not a detection.
  EXPECT_FALSE(detector.detects_modulation(-90.0, -70.0));
}

class ScannerFixture : public ::testing::Test {
 protected:
  ScannerFixture()
      : tag_(core::MmTag::prototype_at(
            core::Pose{{2.0, 1.0},
                       channel::bearing_rad({2.0, 1.0}, {0.0, 0.0})})),
        scanner_(MmWaveReader::prototype_at(core::Pose{{0.0, 0.0}, 0.0}),
                 PowerDetector::mmtag_default()),
        rates_(phy::RateTable::mmtag_standard()),
        rng_(sim::make_rng(23)) {}

  // Tag at bearing atan2(1,2) ~ 26.6 deg from the reader, facing it.
  core::MmTag tag_;
  channel::Environment env_;
  BeamScanner scanner_;
  phy::RateTable rates_;
  sim::Rng rng_;
};

TEST_F(ScannerFixture, ExhaustiveScanFindsTheTagBeam) {
  const auto codebook = antenna::uniform_codebook(
      phys::deg_to_rad(-60.0), phys::deg_to_rad(60.0), 18.0);
  const ScanResult result =
      scanner_.scan(codebook, tag_, env_, rates_, rng_);
  ASSERT_TRUE(result.found_tag());
  EXPECT_EQ(result.probes_used, static_cast<int>(codebook.size()));
  const double winner_deg = phys::rad_to_deg(
      result.probes[static_cast<std::size_t>(result.best_beam_index)]
          .beam.boresight_rad);
  EXPECT_NEAR(winner_deg, 26.6, 9.1);  // Within one beamwidth.
  EXPECT_GT(result.probes[static_cast<std::size_t>(result.best_beam_index)]
                .achievable_rate_bps,
            0.0);
}

TEST_F(ScannerFixture, HierarchicalScanAgreesWithFewerProbes) {
  const auto stages = antenna::hierarchical_codebook(
      phys::deg_to_rad(-60.0), phys::deg_to_rad(60.0), 2, 4);
  const ScanResult coarse_fine =
      scanner_.hierarchical_scan(stages, tag_, env_, rates_, rng_);
  ASSERT_TRUE(coarse_fine.found_tag());
  // 4 coarse + 4 children < 16 exhaustive.
  EXPECT_LE(coarse_fine.probes_used, 8);
  const double winner_deg = phys::rad_to_deg(
      coarse_fine
          .probes[static_cast<std::size_t>(coarse_fine.best_beam_index)]
          .beam.boresight_rad);
  EXPECT_NEAR(winner_deg, 26.6, 8.0);
}

TEST_F(ScannerFixture, NoTagInSectorFindsNothing) {
  // Scan the wrong half-plane: the tag sits at +26 deg; scan [-60,-20].
  const auto codebook = antenna::uniform_codebook(
      phys::deg_to_rad(-60.0), phys::deg_to_rad(-20.0), 18.0);
  // Move the tag far away so sidelobe leakage cannot trigger detection.
  tag_.set_pose(core::Pose{{8.0, 4.0}, phys::kPi});
  const ScanResult result =
      scanner_.scan(codebook, tag_, env_, rates_, rng_);
  EXPECT_FALSE(result.found_tag());
}

}  // namespace
}  // namespace mmtag::reader
