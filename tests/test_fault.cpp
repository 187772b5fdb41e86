// Fault-injection subsystem tests (src/fault) and the fleet-level
// resilience acceptance criteria: schedule realization, engine epoch
// stepping, recovery-time accounting, and — end to end — that orphan
// re-handoff buys availability under a 10% reader-outage schedule while
// staying bit-deterministic across thread counts.
#include "src/fault/engine.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "src/deploy/fleet.hpp"
#include "src/fault/schedule.hpp"

namespace mmtag::fault {
namespace {

TEST(StuckSwitch, PenaltyMatchesApertureRatio) {
  StuckSwitchModel model;
  model.stuck_elements = 1;
  // One of the prototype's six FETs frozen: two-way aperture ratio
  // 20*log10(6/5).
  EXPECT_NEAR(model.penalty_db(), 20.0 * std::log10(6.0 / 5.0), 1e-12);
  model.stuck_elements = 3;
  EXPECT_NEAR(model.penalty_db(), 20.0 * std::log10(2.0), 1e-12);
  model.stuck_elements = 6;  // Nothing modulates: the link is dead.
  EXPECT_DOUBLE_EQ(model.penalty_db(), kDeadLinkDb);
  model.stuck_elements = 0;
  EXPECT_DOUBLE_EQ(model.penalty_db(), 0.0);
}

TEST(Schedule, DefaultAndChaosZeroAreInactive) {
  for (const FaultSchedule& off :
       {FaultSchedule{}, FaultSchedule::chaos(0.0),
        FaultSchedule::chaos(-2.0)}) {
    EXPECT_FALSE(off.outages.active());
    EXPECT_FALSE(off.brownouts.active());
    EXPECT_FALSE(off.stuck.active());
    EXPECT_FALSE(off.blockage.active());
    EXPECT_FALSE(off.drift.active());
  }
  const FaultSchedule mid = FaultSchedule::chaos(0.5);
  EXPECT_TRUE(mid.outages.active());
  EXPECT_TRUE(mid.brownouts.active());
  EXPECT_TRUE(mid.stuck.active());
  EXPECT_TRUE(mid.blockage.active());
  EXPECT_TRUE(mid.drift.active());
}

TEST(OutageTimelines, DeterministicSortedDisjointAndClipped) {
  ReaderOutageModel model;
  model.rate_hz = 0.5;
  model.mean_duration_s = 0.6;
  const auto a = build_outage_timelines(model, 4, 20.0, 99);
  const auto b = build_outage_timelines(model, 4, 20.0, 99);
  ASSERT_EQ(a.size(), 4u);
  int total = 0;
  for (std::size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].size(), b[r].size());
    double prev_end = 0.0;
    for (std::size_t i = 0; i < a[r].size(); ++i) {
      EXPECT_DOUBLE_EQ(a[r][i].start_s, b[r][i].start_s);
      EXPECT_DOUBLE_EQ(a[r][i].duration_s, b[r][i].duration_s);
      EXPECT_GE(a[r][i].start_s, prev_end);  // Sorted and disjoint.
      EXPECT_GT(a[r][i].duration_s, 0.0);
      EXPECT_LE(a[r][i].end_s(), 20.0 + 1e-12);  // Clipped to the window.
      prev_end = a[r][i].end_s();
      ++total;
    }
  }
  // 0.5 Hz x 4 readers x 20 s: arrivals are all but certain.
  EXPECT_GT(total, 0);
}

TEST(OutageTimelines, ReaderStreamsAreIndependent) {
  ReaderOutageModel model;
  model.rate_hz = 0.5;
  model.mean_duration_s = 0.6;
  // Adding readers must not shift an existing reader's timeline.
  const auto narrow = build_outage_timelines(model, 2, 20.0, 99);
  const auto wide = build_outage_timelines(model, 6, 20.0, 99);
  for (std::size_t r = 0; r < 2; ++r) {
    ASSERT_EQ(narrow[r].size(), wide[r].size());
    for (std::size_t i = 0; i < narrow[r].size(); ++i) {
      EXPECT_DOUBLE_EQ(narrow[r][i].start_s, wide[r][i].start_s);
      EXPECT_DOUBLE_EQ(narrow[r][i].duration_s, wide[r][i].duration_s);
    }
  }
}

TEST(OutageTimelines, ScriptedEventsMergeClipAndCoalesce) {
  ReaderOutageModel model;  // No Poisson arrivals: scripted only.
  model.scripted = {{0, 1.0, 2.0},  {0, 2.5, 1.0}, {0, 3.0, 4.0},
                    {1, -1.0, 0.5}, {1, 9.5, 4.0}, {2, 12.0, 1.0},
                    {7, 1.0, 1.0}};
  EXPECT_TRUE(model.active());
  const auto t = build_outage_timelines(model, 3, 10.0, 7);
  // Reader 0: [1,3) + [2.5,3.5) + [3,7) coalesce into [1,7).
  ASSERT_EQ(t[0].size(), 1u);
  EXPECT_DOUBLE_EQ(t[0][0].start_s, 1.0);
  EXPECT_DOUBLE_EQ(t[0][0].end_s(), 7.0);
  // Reader 1: the pre-window event vanishes, the tail event clips to 10 s.
  ASSERT_EQ(t[1].size(), 1u);
  EXPECT_DOUBLE_EQ(t[1][0].start_s, 9.5);
  EXPECT_DOUBLE_EQ(t[1][0].end_s(), 10.0);
  // Reader 2: event entirely past the window; reader 7 does not exist.
  EXPECT_TRUE(t[2].empty());
}

TEST(OutageOverlap, ClipsToTheQueryWindow) {
  const std::vector<Outage> timeline = {{1.0, 2.0}, {5.0, 1.0}};
  EXPECT_DOUBLE_EQ(outage_overlap_s(timeline, 0.0, 10.0), 3.0);
  EXPECT_DOUBLE_EQ(outage_overlap_s(timeline, 2.0, 6.0), 2.0);
  EXPECT_DOUBLE_EQ(outage_overlap_s(timeline, 3.5, 4.5), 0.0);
  EXPECT_DOUBLE_EQ(outage_overlap_s(timeline, 1.5, 1.75), 0.25);
  EXPECT_DOUBLE_EQ(outage_overlap_s({}, 0.0, 10.0), 0.0);
}

TEST(FaultEngine, RejectsAnInvalidScheduleByName) {
  // The engine draws each tag's fault membership from the two fractions
  // as given, so it validates the schedule itself.
  FaultSchedule schedule;
  schedule.stuck.affected_fraction = 1.5;
  try {
    const FaultEngine engine(schedule, 1, 1, 1, 1.0, 3);
    ADD_FAILURE() << "accepted stuck.affected_fraction = 1.5";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "FaultEngine::schedule.stuck.affected_fraction"),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultEngine, ReaderUpAndRestartEdge) {
  // Reader 0 out for exactly epochs 1-2 (D = 1 s); reader 1 healthy.
  FaultSchedule schedule;
  schedule.outages.scripted = {{0, 1.0, 2.0}};
  FaultEngine engine(schedule, /*readers=*/2, /*tags=*/4, /*epochs=*/4,
                     /*epoch_duration_s=*/1.0, /*seed=*/11);

  const EpochFaults& e0 = engine.begin_epoch(0);
  EXPECT_DOUBLE_EQ(e0.reader_up[0], 1.0);
  EXPECT_EQ(e0.reader_restarted[0], 0);
  const EpochFaults& e1 = engine.begin_epoch(1);
  EXPECT_DOUBLE_EQ(e1.reader_up[0], 0.0);
  EXPECT_DOUBLE_EQ(e1.reader_up[1], 1.0);
  EXPECT_EQ(e1.reader_restarted[0], 0);  // Going down is not a restart.
  const EpochFaults& e2 = engine.begin_epoch(2);
  EXPECT_DOUBLE_EQ(e2.reader_up[0], 0.0);
  EXPECT_EQ(e2.reader_restarted[0], 0);  // Still down.
  const EpochFaults& e3 = engine.begin_epoch(3);
  EXPECT_DOUBLE_EQ(e3.reader_up[0], 1.0);
  EXPECT_EQ(e3.reader_restarted[0], 1);  // Back in service: restart edge.
  EXPECT_EQ(e3.reader_restarted[1], 0);
}

TEST(FaultEngine, PartialEpochOutageIsNotARestart) {
  FaultSchedule schedule;
  schedule.outages.scripted = {{0, 0.25, 0.5}};  // Blip inside epoch 0.
  FaultEngine engine(schedule, 1, 1, 2, 1.0, 11);
  const EpochFaults& e0 = engine.begin_epoch(0);
  EXPECT_DOUBLE_EQ(e0.reader_up[0], 0.5);
  const EpochFaults& e1 = engine.begin_epoch(1);
  EXPECT_DOUBLE_EQ(e1.reader_up[0], 1.0);
  EXPECT_EQ(e1.reader_restarted[0], 0);  // Never fully down: no teardown.
}

TEST(FaultEngine, BrownoutPopulationTracksFractionAndEnergyModel) {
  FaultSchedule schedule;
  schedule.brownouts.affected_fraction = 0.3;
  const std::size_t n = 2000;
  FaultEngine engine(schedule, 1, n, 1, 0.1, 17);
  // Indoor light cannot carry a 5 mW burst continuously: the constrained
  // population browns out most epochs.
  EXPECT_GT(engine.brownout_probability(), 0.5);
  EXPECT_LE(engine.brownout_probability(), 1.0);
  const EpochFaults& e0 = engine.begin_epoch(0);
  int browned = 0;
  for (std::size_t t = 0; t < n; ++t) browned += e0.tag_brownout[t];
  const double expected =
      0.3 * engine.brownout_probability() * static_cast<double>(n);
  EXPECT_GT(browned, expected * 0.7);
  EXPECT_LT(browned, expected * 1.3);
}

TEST(FaultEngine, BlockageChainEntersAndAttenuates) {
  FaultSchedule schedule;
  schedule.blockage.enter_rate_hz = 50.0;  // p_enter ~ 1 at D = 0.1 s.
  schedule.blockage.mean_burst_s = 1000.0;  // Essentially never exits.
  schedule.blockage.block_probability = 0.8;
  const std::size_t n = 500;
  FaultEngine engine(schedule, 1, n, 3, 0.1, 23);
  const EpochFaults& e0 = engine.begin_epoch(0);
  int blocked = 0;
  for (std::size_t t = 0; t < n; ++t) {
    blocked += e0.tag_blocked[t];
    if (e0.tag_blocked[t] != 0) {
      EXPECT_DOUBLE_EQ(e0.tag_loss_db[t], 15.0);
    } else {
      EXPECT_DOUBLE_EQ(e0.tag_loss_db[t], 0.0);
    }
  }
  // p_enter = 1 - exp(-5) = 0.993: nearly everyone is behind the forklift.
  EXPECT_GT(blocked, static_cast<int>(0.9 * n));
  EXPECT_DOUBLE_EQ(e0.block_probability, 0.8);
  // With a 1000 s mean dwell nobody recovers by epoch 2.
  engine.begin_epoch(1);
  const EpochFaults& e2 = engine.begin_epoch(2);
  int still = 0;
  for (std::size_t t = 0; t < n; ++t) still += e2.tag_blocked[t];
  EXPECT_GE(still, blocked);
}

TEST(FaultEngine, DriftSkewLossScalesWithEpoch) {
  FaultSchedule schedule;
  schedule.drift.sigma_ppm = 100.0;
  FaultEngine engine(schedule, 8, 1, 1, 0.5, 31);
  const EpochFaults& e0 = engine.begin_epoch(0);
  bool any = false;
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_GE(e0.reader_skew_loss_s[r], 0.0);
    // 100 ppm sigma: even a 5-sigma drifter loses < 500 ppm of the epoch.
    EXPECT_LT(e0.reader_skew_loss_s[r], 500e-6 * 0.5);
    if (e0.reader_skew_loss_s[r] > 0.0) any = true;
  }
  EXPECT_TRUE(any);
}

TEST(FaultEngine, RecoveryTimesHonorEpochBoundaries) {
  FaultSchedule schedule;
  // One outage covering epochs 2-3 fully (starts mid-epoch-1), one blip
  // too short to blank any epoch, one outage running past the end.
  schedule.outages.scripted = {
      {0, 1.5, 2.5}, {1, 0.2, 0.3}, {2, 4.5, 10.0}};
  FaultEngine engine(schedule, 3, 1, /*epochs=*/5, /*epoch_duration_s=*/1.0,
                     41);

  // With re-handoff: orphans re-home at the first fully-covered epoch's
  // start (t = 2.0), so the fleet recovers 0.5 s after the failure.
  const std::vector<double> with = engine.recovery_times_s(true);
  ASSERT_EQ(with.size(), 3u);
  EXPECT_NEAR(with[0], 0.5, 1e-12);
  EXPECT_NEAR(with[1], 0.3, 1e-12);  // Sub-epoch blip: wait it out.
  EXPECT_NEAR(with[2], 0.5, 1e-12);  // Re-homed at t = 5.0... clipped run.

  // Without re-handoff tags wait for the reader itself (clipped to run).
  const std::vector<double> without = engine.recovery_times_s(false);
  ASSERT_EQ(without.size(), 3u);
  EXPECT_NEAR(without[0], 2.5, 1e-12);
  EXPECT_NEAR(without[1], 0.3, 1e-12);
  EXPECT_NEAR(without[2], 0.5, 1e-12);
}

TEST(FaultReportFingerprint, SensitiveToEveryKindOfField) {
  const std::uint64_t base = fingerprint(FaultReport{});
  FaultReport a;
  a.availability = 0.5;
  EXPECT_NE(fingerprint(a), base);
  FaultReport b;
  b.polls_timed_out = 1;
  EXPECT_NE(fingerprint(b), base);
  FaultReport c;
  c.cache_evictions = 7;
  EXPECT_NE(fingerprint(c), base);
  EXPECT_EQ(fingerprint(FaultReport{}), base);  // Stable for equal reports.
}

// ---------------------------------------------------------------------------
// Fleet-level acceptance criteria.

deploy::FleetConfig chaos_fleet() {
  deploy::FleetConfig config;
  config.layout.width_m = 10.0;
  config.layout.height_m = 6.0;
  config.layout.readers = 4;
  config.layout.tags = 60;
  config.layout.seed = 42;
  config.epochs = 5;
  config.epoch_duration_s = 0.02;
  config.seed = 42;
  config.threads = 1;
  return config;
}

/// ~10% fleet-wide downtime, deterministically scripted: reader 0 down
/// 0.03-0.09 s of a 4-reader x 0.1 s run (epochs 2 and 3 fully covered).
FaultSchedule ten_percent_outage_schedule() {
  FaultSchedule schedule;
  schedule.outages.scripted = {{0, 0.03, 0.06}};
  return schedule;
}

TEST(FleetResilience, RecoveryBeatsNoRecoveryUnderTenPercentOutages) {
  deploy::FleetConfig off = chaos_fleet();
  off.faults = ten_percent_outage_schedule();
  off.recovery.reassign_orphans = false;
  const deploy::FleetResult no_recovery = deploy::FleetSimulator(off).run();

  deploy::FleetConfig on = chaos_fleet();
  on.faults = ten_percent_outage_schedule();
  const deploy::FleetResult recovered = deploy::FleetSimulator(on).run();

  // Without re-handoff, reader 0's roster is orphaned for two full epochs.
  EXPECT_EQ(no_recovery.fault.reader_outages, 1);
  EXPECT_EQ(no_recovery.fault.orphan_handoffs, 0);
  EXPECT_GT(no_recovery.fault.orphaned_tag_s, 0.0);
  EXPECT_LT(no_recovery.fault.availability, 1.0);

  // With re-handoff every orphan re-homes at the epoch boundary: the
  // availability margin is the acceptance criterion of this subsystem.
  EXPECT_GT(recovered.fault.orphan_handoffs, 0);
  EXPECT_DOUBLE_EQ(recovered.fault.availability, 1.0);
  EXPECT_GE(recovered.fault.availability,
            no_recovery.fault.availability + 0.02);
  // And repairs land faster than waiting out the outage.
  EXPECT_LT(recovered.fault.mttr_mean_s, no_recovery.fault.mttr_mean_s);
  EXPECT_NEAR(no_recovery.fault.mttr_mean_s, 0.06, 1e-9);
  EXPECT_NEAR(recovered.fault.mttr_mean_s, 0.01, 1e-9);

  // The restart edge (epoch 4) re-calibrates: the warm cache is dropped.
  EXPECT_GT(recovered.fault.cache_evictions, 0u);
}

TEST(FleetResilience, ChaosRunsAreBitIdenticalAcrossThreadCounts) {
  std::uint64_t fleet_ref = 0;
  std::uint64_t fault_ref = 0;
  bool first = true;
  for (const int threads : {1, 4}) {
    deploy::FleetConfig config = chaos_fleet();
    config.faults = FaultSchedule::chaos(0.6);
    config.threads = threads;
    const deploy::FleetResult result = deploy::FleetSimulator(config).run();
    const std::uint64_t fleet_fp = deploy::fingerprint(result.stats);
    const std::uint64_t fault_fp = fingerprint(result.fault);
    if (first) {
      fleet_ref = fleet_fp;
      fault_ref = fault_fp;
      first = false;
    } else {
      EXPECT_EQ(fleet_fp, fleet_ref) << "threads=" << threads;
      EXPECT_EQ(fault_fp, fault_ref) << "threads=" << threads;
    }
  }
}

TEST(FleetResilience, FullChaosStillReadsTags) {
  deploy::FleetConfig config = chaos_fleet();
  config.faults = FaultSchedule::chaos(1.0);
  const deploy::FleetResult result = deploy::FleetSimulator(config).run();
  // Degraded, not dead: the fleet keeps serving under full chaos.
  EXPECT_GT(result.stats.tags_read, 0);
  EXPECT_GT(result.stats.goodput_mean_bps, 0.0);
  EXPECT_GE(result.fault.availability, 0.0);
  EXPECT_LE(result.fault.availability, 1.0);
  EXPECT_GT(result.fault.stuck_tags, 0);
}

TEST(FleetResilience, InactiveScheduleMatchesFaultFreeRunExactly) {
  const deploy::FleetResult plain =
      deploy::FleetSimulator(chaos_fleet()).run();
  deploy::FleetConfig explicit_off = chaos_fleet();
  explicit_off.faults = FaultSchedule::chaos(0.0);
  const deploy::FleetResult off =
      deploy::FleetSimulator(explicit_off).run();
  // Same RNG draws, same physics, same digests - and an all-default report.
  EXPECT_EQ(deploy::fingerprint(plain.stats), deploy::fingerprint(off.stats));
  EXPECT_EQ(fingerprint(off.fault), fingerprint(FaultReport{}));
  EXPECT_DOUBLE_EQ(off.fault.availability, 1.0);
  EXPECT_EQ(off.fault.reader_outages, 0);
}

}  // namespace
}  // namespace mmtag::fault
