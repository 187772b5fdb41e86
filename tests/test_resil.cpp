// Resilience control plane units (DESIGN.md Sec. 15): circuit breakers,
// phi-accrual health monitoring (including the cross-thread record
// path), admission control, and fault domains.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/resil/admission.hpp"
#include "src/resil/breaker.hpp"
#include "src/resil/domain.hpp"
#include "src/resil/health.hpp"

namespace mmtag::resil {
namespace {

// --- CircuitBreaker ------------------------------------------------------

BreakerConfig breaker_config(int threshold, int open_epochs) {
  BreakerConfig config;
  config.failure_threshold = threshold;
  config.open_epochs = open_epochs;
  return config;
}

TEST(CircuitBreaker, OpensAtThresholdAndRefusesTraffic) {
  CircuitBreaker breaker(breaker_config(2, 1));
  EXPECT_TRUE(breaker.allow());
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.allow());
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.allow());
}

TEST(CircuitBreaker, SuccessResetsTheClosedFailureCount) {
  CircuitBreaker breaker(breaker_config(2, 1));
  breaker.record_failure();
  breaker.record_success();
  breaker.record_failure();
  // Non-consecutive failures never accumulate to the threshold.
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 1);
}

TEST(CircuitBreaker, HalfOpenProbeDecidesRecloseOrFreshSentence) {
  CircuitBreaker breaker(breaker_config(1, 2));
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  breaker.tick_epoch();  // open_epochs = 2: still serving the sentence.
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  breaker.tick_epoch();
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.allow());  // The probe.
  breaker.record_failure();      // Probe fails: fresh sentence.
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  breaker.tick_epoch();
  breaker.tick_epoch();
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.record_success();      // Probe succeeds: reclose, clean slate.
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0);
}

TEST(BreakerBank, CountsTripsAndRecoveriesPerBank) {
  BreakerBank bank(3, breaker_config(1, 1));
  const std::uint64_t before = bank.fingerprint();
  bank.record_failure(0);
  bank.record_failure(2);
  EXPECT_EQ(bank.stats().opened, 2u);
  EXPECT_EQ(bank.open_count(), 2u);
  EXPECT_FALSE(bank.allow(0));
  EXPECT_TRUE(bank.allow(1));
  EXPECT_NE(bank.fingerprint(), before);
  bank.tick_epoch();
  EXPECT_EQ(bank.stats().half_opened, 2u);
  bank.record_success(0);  // Probe succeeds on link 0 only.
  bank.record_failure(2);
  EXPECT_EQ(bank.stats().reclosed, 1u);
  EXPECT_EQ(bank.stats().opened, 3u);
  EXPECT_EQ(bank.open_count(), 1u);
  EXPECT_TRUE(bank.allow(0));
  EXPECT_FALSE(bank.allow(2));
}

// --- HealthMonitor -------------------------------------------------------

TEST(HealthMonitor, CleanHistoryEntitySuspectedAfterOneSilentEpoch) {
  HealthMonitor monitor(2);
  monitor.record(0, 10, 8);  // Entity 1 is silent: no report at all.
  monitor.end_epoch();
  EXPECT_FALSE(monitor.suspected(0));
  EXPECT_TRUE(monitor.suspected(1));
  // One miss against the floored healthy model: -log10(0.05) decades.
  EXPECT_NEAR(monitor.phi(1), -std::log10(0.05), 1e-12);
  EXPECT_EQ(monitor.suspected_since(1), 1u);
  EXPECT_EQ(monitor.suspected_count(), 1u);
}

TEST(HealthMonitor, ZeroSuccessesAgainstAttemptsIsAMissToo) {
  HealthMonitor monitor(1);
  monitor.record(0, 16, 0);
  monitor.end_epoch();
  EXPECT_TRUE(monitor.suspected(0));
}

TEST(HealthMonitor, ProbeCadenceServesEveryProbeIntervalEpochs) {
  HealthConfig config;
  config.probe_interval_epochs = 2;
  HealthMonitor monitor(1, config);
  monitor.end_epoch();  // Silent: suspected, countdown 2 -> 1.
  EXPECT_TRUE(monitor.suspected(0));
  EXPECT_FALSE(monitor.should_serve(0));
  monitor.end_epoch();  // Countdown 1 -> 0: probe epoch.
  EXPECT_TRUE(monitor.should_serve(0));
  monitor.end_epoch();  // Probe was silent: sit out again.
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
  monitor.end_epoch();       // Suspected.
  ASSERT_TRUE(monitor.suspected(0));
  monitor.record(0, 4, 3);   // Recovery observed.
  monitor.end_epoch();
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
  // Teach the detector a lossy-but-alive history: miss, then success.
  monitor.end_epoch();       // Miss: ewma 0 -> 0.2 (first of streak).
  monitor.record(0, 8, 5);
  monitor.end_epoch();       // Success: ewma 0.2 -> 0.16, cleared.
  EXPECT_FALSE(monitor.suspected(0));
  monitor.end_epoch();       // Miss 1: phi = -log10(0.16) ~ 0.80 < 1.
  EXPECT_FALSE(monitor.suspected(0));
  EXPECT_NEAR(monitor.phi(0), -std::log10(0.16), 1e-12);
  monitor.end_epoch();       // Miss 2: ewma clamped at 0.3 -> phi ~ 1.05.
  EXPECT_TRUE(monitor.suspected(0));
  EXPECT_NEAR(monitor.phi(0), 2.0 * -std::log10(0.3), 1e-12);
}

TEST(HealthMonitor, SilenceCanBeHealthyWhenConfiguredOff) {
  HealthConfig config;
  config.silence_is_miss = false;
  HealthMonitor monitor(1, config);
  monitor.end_epoch();  // No attempts recorded: no evidence either way.
  EXPECT_FALSE(monitor.suspected(0));
  EXPECT_TRUE(monitor.should_serve(0));
}

TEST(HealthMonitor, CrossThreadRecordsMatchTheSerialFingerprint) {
  // The TSan-relevant path: record() from parallel workers, detection on
  // the coordinating thread. Relaxed adds commute, so any interleaving
  // must land on the serially-fed detection state bit for bit.
  constexpr std::size_t kEntities = 8;
  constexpr int kThreads = 4;
  constexpr int kRounds = 100;
  HealthMonitor parallel_monitor(kEntities);
  HealthMonitor serial_monitor(kEntities);
  for (int epoch = 0; epoch < 3; ++epoch) {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&parallel_monitor, epoch] {
        for (int i = 0; i < kRounds; ++i) {
          for (std::size_t e = 0; e < kEntities; ++e) {
            // Entity 5 goes dark from epoch 1 onward.
            const bool down = e == 5 && epoch >= 1;
            parallel_monitor.record(e, 2, down ? 0 : 1);
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (std::size_t e = 0; e < kEntities; ++e) {
      const bool down = e == 5 && epoch >= 1;
      serial_monitor.record(e, 2ull * kThreads * kRounds,
                            down ? 0 : 1ull * kThreads * kRounds);
    }
    parallel_monitor.end_epoch();
    serial_monitor.end_epoch();
  }
  EXPECT_EQ(parallel_monitor.fingerprint(), serial_monitor.fingerprint());
  EXPECT_TRUE(parallel_monitor.suspected(5));
  EXPECT_FALSE(parallel_monitor.suspected(0));
}

// --- AdmissionController -------------------------------------------------

AdmissionConfig admission_config() {
  AdmissionConfig config;
  config.enabled = true;
  config.pool_budget_packets = 100;
  config.high_watermark = 0.85;
  config.low_watermark = 0.70;
  config.priority_classes = 4;
  return config;
}

TEST(Admission, DisabledControllerAdmitsEverything) {
  AdmissionConfig config = admission_config();
  config.enabled = false;
  const AdmissionController controller(config);
  const AdmissionPlan plan = controller.plan_shedding(30, 4);
  EXPECT_EQ(plan.admitted_flows, 30u);
  EXPECT_EQ(plan.shed_flows, 0u);
}

TEST(Admission, UnderTheHighWatermarkNothingSheds) {
  const AdmissionController controller(admission_config());
  // 21 flows * 4 packets = 84 <= 85: fits.
  const AdmissionPlan plan = controller.plan_shedding(21, 4);
  EXPECT_EQ(plan.admitted_flows, 21u);
  EXPECT_EQ(plan.shed_flows, 0u);
  EXPECT_EQ(plan.projected_packets, 84u);
}

TEST(Admission, ShedsToTheLowWatermarkLowestPriorityFirst) {
  std::uint64_t shed_before = 0;
  if constexpr (obs::kObsEnabled) {
    shed_before =
        obs::Registry::instance().counter("resil.shed.flows").value();
  }
  const AdmissionController controller(admission_config());
  // 30 flows * 4 = 120 > 85: shed down to floor(70 / 4) = 17 admitted.
  const AdmissionPlan plan = controller.plan_shedding(30, 4);
  EXPECT_EQ(plan.admitted_flows, 17u);
  EXPECT_EQ(plan.shed_flows, 13u);
  EXPECT_EQ(plan.projected_packets, 68u);
  // All seven class-3 flows (f % 4 == 3) shed first...
  for (std::size_t f = 3; f < 30; f += 4) EXPECT_EQ(plan.admitted[f], 0);
  // ...then class 2 from the highest flow index down; flow 2 survives.
  EXPECT_EQ(plan.admitted[26], 0);
  EXPECT_EQ(plan.admitted[6], 0);
  EXPECT_EQ(plan.admitted[2], 1);
  // Classes 0 and 1 ride through untouched.
  for (std::size_t f = 0; f < 30; ++f) {
    if (f % 4 <= 1) {
      EXPECT_EQ(plan.admitted[f], 1) << "flow " << f;
    }
  }
  if constexpr (obs::kObsEnabled) {
    EXPECT_EQ(obs::Registry::instance().counter("resil.shed.flows").value(),
              shed_before + 13);
  }
}

TEST(Admission, PressureCheckIsStrictlyAboveTheHighWatermark) {
  const AdmissionController controller(admission_config());
  EXPECT_FALSE(controller.under_pressure(85, 100));  // Exactly at: fine.
  EXPECT_TRUE(controller.under_pressure(86, 100));
  AdmissionConfig off = admission_config();
  off.enabled = false;
  EXPECT_FALSE(AdmissionController(off).under_pressure(99, 100));
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
  EXPECT_EQ(schedule.down_count(3, 4, 3), 4u);
  EXPECT_EQ(schedule.down_count(4, 4, 3), 0u);  // End epoch is exclusive.
}

TEST(DomainSchedule, OutOfRangeRectanglesClampToTheGrid) {
  DomainSchedule schedule;
  schedule.domains.push_back(OutageDomain{-5, -5, 0, 10, 0, 1});
  // Clamps to column 0, all rows of a 4 x 3 grid.
  EXPECT_EQ(schedule.down_count(0, 4, 3), 3u);
  std::vector<std::uint8_t> up;
  schedule.apply(0, 4, 3, &up);
  EXPECT_EQ(up[0], 0);
  EXPECT_EQ(up[4], 0);
  EXPECT_EQ(up[8], 0);
  EXPECT_EQ(up[1], 1);
}

}  // namespace
}  // namespace mmtag::resil
