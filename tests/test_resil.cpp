// Resilience control plane units (DESIGN.md Sec. 15): phi-accrual
// health monitoring and fault domains.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/resil/domain.hpp"
#include "src/resil/health.hpp"

namespace mmtag::resil {
namespace {

// --- HealthMonitor -------------------------------------------------------

using Reports = std::vector<std::uint64_t>;

TEST(HealthMonitor, CleanHistoryEntitySuspectedAfterOneSilentEpoch) {
  HealthMonitor monitor(2);
  monitor.end_epoch(Reports{8, 0});  // Entity 1 is silent.
  EXPECT_FALSE(monitor.suspected(0));
  EXPECT_TRUE(monitor.suspected(1));
  // One miss against the floored healthy model: -log10(0.05) decades.
  EXPECT_NEAR(monitor.phi(1), -std::log10(0.05), 1e-12);
  EXPECT_EQ(monitor.suspected_since(1), 1u);
  EXPECT_EQ(monitor.suspected_count(), 1u);
}

TEST(HealthMonitor, ZeroSuccessesAgainstAttemptsIsAMissToo) {
  HealthMonitor monitor(1);
  monitor.end_epoch(Reports{0});
  EXPECT_TRUE(monitor.suspected(0));
}

TEST(HealthMonitor, ProbeCadenceServesEveryProbeIntervalEpochs) {
  HealthConfig config;
  config.probe_interval_epochs = 2;
  HealthMonitor monitor(1, config);
  const Reports silent{0};
  monitor.end_epoch(silent);  // Suspected, countdown 2 -> 1.
  EXPECT_TRUE(monitor.suspected(0));
  EXPECT_FALSE(monitor.should_serve(0));
  monitor.end_epoch(silent);  // Countdown 1 -> 0: probe epoch.
  EXPECT_TRUE(monitor.should_serve(0));
  monitor.end_epoch(silent);  // Probe was silent: sit out again.
  EXPECT_FALSE(monitor.should_serve(0));
  EXPECT_EQ(monitor.suspected_since(0), 1u);  // One continuous episode.
}

TEST(HealthMonitor, SuccessOnTheProbeClearsSuspicion) {
  std::uint64_t cleared_before = 0;
  if constexpr (obs::kObsEnabled) {
    cleared_before =
        obs::Registry::instance().counter("resil.health.cleared").value();
  }
  HealthMonitor monitor(1);
  monitor.end_epoch(Reports{0});  // Suspected.
  ASSERT_TRUE(monitor.suspected(0));
  monitor.end_epoch(Reports{3});  // Recovery observed.
  EXPECT_FALSE(monitor.suspected(0));
  EXPECT_TRUE(monitor.should_serve(0));
  EXPECT_EQ(monitor.phi(0), 0.0);
  EXPECT_EQ(monitor.suspected_since(0), 0u);
  if constexpr (obs::kObsEnabled) {
    EXPECT_EQ(
        obs::Registry::instance().counter("resil.health.cleared").value(),
        cleared_before + 1);
  }
}

TEST(HealthMonitor, NoisyEntityStillSuspectedWithinTwoMisses) {
  HealthMonitor monitor(1);
  const Reports silent{0};
  // Teach the detector a lossy-but-alive history: miss, then success.
  monitor.end_epoch(silent);      // Miss: ewma 0 -> 0.2 (first of streak).
  monitor.end_epoch(Reports{5});  // Success: ewma 0.2 -> 0.16, cleared.
  EXPECT_FALSE(monitor.suspected(0));
  monitor.end_epoch(silent);  // Miss 1: phi = -log10(0.16) ~ 0.80 < 1.
  EXPECT_FALSE(monitor.suspected(0));
  EXPECT_NEAR(monitor.phi(0), -std::log10(0.16), 1e-12);
  monitor.end_epoch(silent);  // Miss 2: ewma clamped at 0.3 -> phi ~ 1.05.
  EXPECT_TRUE(monitor.suspected(0));
  EXPECT_NEAR(monitor.phi(0), 2.0 * -std::log10(0.3), 1e-12);
}

TEST(HealthMonitor, AZeroEntryIsSilence) {
  // Entity 0 always succeeds, entity 1 goes dark for epochs 2-4, and
  // entity 2 answers only epoch 5. The digest was pinned when a silent
  // entity made no report at all; a zero entry lands on the same detection
  // state bit for bit.
  HealthMonitor monitor(3);
  for (std::uint64_t epoch = 0; epoch < 8; ++epoch) {
    const bool dark = epoch >= 2 && epoch <= 4;
    monitor.end_epoch(Reports{5, dark ? 0u : 2u, epoch == 5 ? 1u : 0u});
  }
  EXPECT_EQ(monitor.fingerprint(), 0xe04bb34dc60b11d6ull);
  EXPECT_FALSE(monitor.suspected(0));
  EXPECT_FALSE(monitor.suspected(1));
  EXPECT_TRUE(monitor.suspected(2));
}

TEST(HealthMonitor, RejectsOutOfRangeConfigs) {
  const auto rejected = [](void (*mutate)(HealthConfig&)) {
    HealthConfig config;
    mutate(config);
    EXPECT_THROW(HealthMonitor(1, config), std::invalid_argument);
  };
  rejected([](HealthConfig& c) { c.phi_suspect = 0.0; });
  rejected([](HealthConfig& c) { c.min_miss_probability = 0.0; });
  rejected([](HealthConfig& c) { c.max_miss_probability = 0.01; });
  rejected([](HealthConfig& c) { c.max_miss_probability = 1.0; });
  rejected([](HealthConfig& c) { c.ewma_alpha = 0.0; });
  rejected([](HealthConfig& c) { c.ewma_alpha = 1.5; });
  rejected([](HealthConfig& c) { c.probe_interval_epochs = 0; });
  EXPECT_NO_THROW(HealthMonitor(1, HealthConfig{}));
}

// --- DomainSchedule ------------------------------------------------------

TEST(DomainSchedule, RectangleDownsItsReadersForItsEpochsOnly) {
  DomainSchedule schedule;
  schedule.domains.push_back(OutageDomain{1, 1, 2, 2, 2, 4});
  EXPECT_TRUE(schedule.active());
  std::vector<std::uint8_t> up;
  // 4 x 3 grid, reader r at (r % 4, r / 4).
  schedule.apply(1, 4, 3, &up);
  for (const std::uint8_t u : up) EXPECT_EQ(u, 1);  // Not started yet.
  schedule.apply(2, 4, 3, &up);
  std::vector<std::size_t> down;
  for (std::size_t r = 0; r < up.size(); ++r) {
    if (up[r] == 0) down.push_back(r);
  }
  EXPECT_EQ(down, (std::vector<std::size_t>{5, 6, 9, 10}));
  schedule.apply(3, 4, 3, &up);
  EXPECT_EQ(std::count(up.begin(), up.end(), 0), 4);
  schedule.apply(4, 4, 3, &up);
  EXPECT_EQ(std::count(up.begin(), up.end(), 0), 0);  // End is exclusive.
}

TEST(DomainSchedule, OutOfRangeRectanglesClampToTheGrid) {
  DomainSchedule schedule;
  schedule.domains.push_back(OutageDomain{-5, -5, 0, 10, 0, 1});
  // Clamps to column 0, all rows of a 4 x 3 grid.
  std::vector<std::uint8_t> up;
  schedule.apply(0, 4, 3, &up);
  EXPECT_EQ(std::count(up.begin(), up.end(), 0), 3);
  EXPECT_EQ(up[0], 0);
  EXPECT_EQ(up[4], 0);
  EXPECT_EQ(up[8], 0);
  EXPECT_EQ(up[1], 1);
}

}  // namespace
}  // namespace mmtag::resil
