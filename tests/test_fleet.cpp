// Fleet simulator (src/deploy): layout determinism, end-to-end service,
// thread-count invariance of the aggregates, mobility/handoff, the
// cache's raytrace savings on static scenarios, the cell's poll retry
// machine, and config validation.
#include "src/deploy/fleet.hpp"

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/deploy/cell.hpp"
#include "src/deploy/coordinator.hpp"
#include "src/deploy/layout.hpp"
#include "src/fault/engine.hpp"
#include "src/fault/schedule.hpp"
#include "src/phys/constants.hpp"
#include "src/reader/reader.hpp"
#include "src/sim/parallel.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::deploy {
namespace {

FleetConfig small_fleet() {
  FleetConfig config;
  config.layout.width_m = 10.0;
  config.layout.height_m = 6.0;
  config.layout.readers = 4;
  config.layout.tags = 60;
  config.layout.seed = 42;
  config.epochs = 2;
  config.epoch_duration_s = 0.02;
  config.seed = 42;
  config.threads = 1;
  return config;
}

/// The coordinator's plans for `config`'s layout, which a fleet run
/// holds for every epoch (its readers never move).
std::vector<CellPlan> plans_for(const FleetConfig& config) {
  const FleetLayout layout = make_layout(config.layout);
  std::vector<reader::MmWaveReader> readers;
  for (const core::Pose& pose : layout.reader_poses) {
    readers.push_back(reader::MmWaveReader::prototype_at(pose));
  }
  return FleetCoordinator(config.coordination)
      .plan(readers, layout.environment);
}

TEST(Layout, IsDeterministicAndInBounds) {
  LayoutConfig config;
  config.width_m = 10.0;
  config.height_m = 6.0;
  config.readers = 4;
  config.tags = 50;
  config.seed = 7;
  const FleetLayout a = make_layout(config);
  const FleetLayout b = make_layout(config);
  ASSERT_EQ(a.tags.size(), 50u);
  ASSERT_EQ(a.reader_poses.size(), 4u);
  EXPECT_EQ(a.environment.walls().size(), 4u);
  for (std::size_t i = 0; i < a.tags.size(); ++i) {
    const auto pa = a.tags[i].pose().position;
    const auto pb = b.tags[i].pose().position;
    EXPECT_DOUBLE_EQ(pa.x, pb.x);
    EXPECT_DOUBLE_EQ(pa.y, pb.y);
    EXPECT_GE(pa.x, config.margin_m);
    EXPECT_LE(pa.x, config.width_m - config.margin_m);
    EXPECT_GE(pa.y, config.margin_m);
    EXPECT_LE(pa.y, config.height_m - config.margin_m);
  }
}

TEST(FleetSimulator, ReadsMostTagsAndProducesSaneStats) {
  FleetSimulator fleet(small_fleet());
  const FleetResult result = fleet.run();
  const FleetStats& stats = result.stats;

  EXPECT_EQ(stats.tags_total, 60);
  EXPECT_GT(stats.coverage(), 0.8);  // Dense 4-reader cell grid: near-full.
  EXPECT_GT(stats.tags_read, 0);
  EXPECT_GT(stats.goodput_mean_bps, 0.0);
  EXPECT_GT(stats.jain, 0.1);
  EXPECT_LE(stats.jain, 1.0);
  EXPECT_GE(stats.latency_p99_s, stats.latency_p50_s);
  EXPECT_GT(stats.reader_utilization, 0.0);
  EXPECT_LE(stats.reader_utilization, 1.0);
  EXPECT_GT(stats.cache_hit_rate(), 0.5);  // Polling re-hits constantly.
  ASSERT_EQ(result.last_epoch.size(), 4u);
}

TEST(FleetSimulator, AggregatesAreBitIdenticalAcrossThreadCounts) {
  FleetConfig base = small_fleet();
  base.mobile_fraction = 0.2;  // Exercise invalidation + handoff too.

  std::uint64_t reference = 0;
  bool first = true;
  for (const int threads : {1, 4, sim::default_thread_count()}) {
    FleetConfig config = base;
    config.threads = threads;
    const FleetResult result = FleetSimulator(config).run();
    const std::uint64_t print = fingerprint(result.stats);
    if (first) {
      reference = print;
      first = false;
    } else {
      EXPECT_EQ(print, reference) << "threads=" << threads;
    }
  }
}

TEST(FleetSimulator, RunOverTheConfiguredLayoutMatchesRun) {
  FleetConfig config = small_fleet();
  config.mobile_fraction = 0.2;  // The run moves the layout's tags.
  FleetSimulator fleet(config);
  const FleetResult built = fleet.run();
  const FleetResult given = fleet.run(make_layout(config.layout));
  EXPECT_EQ(fingerprint(given.stats), fingerprint(built.stats));
  EXPECT_EQ(fault::fingerprint(given.fault), fault::fingerprint(built.fault));
}

TEST(FleetSimulator, RunRejectsALayoutOfAnotherShape) {
  FleetSimulator fleet(small_fleet());
  const LayoutConfig config = small_fleet().layout;
  LayoutConfig wider = config;
  wider.width_m += 1.0;
  LayoutConfig deeper = config;
  deeper.height_m += 1.0;
  LayoutConfig fewer_readers = config;
  fewer_readers.readers -= 1;
  LayoutConfig more_tags = config;
  more_tags.tags += 1;
  for (const LayoutConfig& other : {wider, deeper, fewer_readers, more_tags}) {
    EXPECT_THROW((void)fleet.run(make_layout(other)), std::invalid_argument);
  }
}

TEST(FleetSimulator, SeedChangesTheRealization) {
  FleetConfig a = small_fleet();
  FleetConfig b = small_fleet();
  b.seed = 43;
  b.layout.seed = 43;
  EXPECT_NE(fingerprint(FleetSimulator(a).run().stats),
            fingerprint(FleetSimulator(b).run().stats));
}

TEST(FleetSimulator, MobilityTriggersHandoffsAndStaysDeterministic) {
  FleetConfig config = small_fleet();
  config.epochs = 4;
  config.mobile_fraction = 0.5;
  config.mobile_speed_mps = 10.0;  // Fast walkers cross cell borders.
  const FleetResult a = FleetSimulator(config).run();
  const FleetResult b = FleetSimulator(config).run();
  EXPECT_GT(a.stats.handoffs, 0);
  EXPECT_EQ(fingerprint(a.stats), fingerprint(b.stats));
}

TEST(FleetSimulator, StaticScenarioCacheSavesTenfoldRaytraces) {
  FleetConfig cached = small_fleet();
  // Full-airtime policy: cells poll all epoch, so the hot loop hammers the
  // link budgets — the workload the cache exists for.
  cached.coordination.policy = CoordinationPolicy::kChannelized;
  FleetConfig uncached = cached;
  uncached.use_link_cache = false;

  const FleetResult with = FleetSimulator(cached).run();
  const FleetResult without = FleetSimulator(uncached).run();

  // Identical physics either way...
  EXPECT_EQ(fingerprint(with.stats), fingerprint(without.stats));
  // ...but the static scenario re-traces nothing after warmup.
  EXPECT_GT(without.stats.raytrace_evals, 0u);
  EXPECT_GE(without.stats.raytrace_evals, 10 * with.stats.raytrace_evals);
  EXPECT_EQ(without.stats.cache_hits, 0u);
}

TEST(FleetCoordinator, TdmSharesAirtimeWithoutInterference) {
  FleetConfig config = small_fleet();
  config.coordination.policy = CoordinationPolicy::kTdm;
  const FleetResult result = FleetSimulator(config).run();
  const std::vector<CellPlan> plans = plans_for(config);
  ASSERT_EQ(plans.size(), 4u);
  for (const CellPlan& plan : plans) {
    EXPECT_DOUBLE_EQ(plan.airtime_share, 0.25);
    EXPECT_DOUBLE_EQ(plan.interference_dbm, -300.0);
  }
  // A quarter of the airtime caps reader utilization at a quarter.
  EXPECT_LE(result.stats.reader_utilization, 0.25 + 1e-9);
}

TEST(FleetCoordinator, ChannelizationReducesInterferenceLoad) {
  FleetConfig same = small_fleet();
  // One channel: every cell shares channel 0 at raw same-channel SINR.
  same.coordination.policy = CoordinationPolicy::kChannelized;
  same.coordination.channels = 1;
  FleetConfig channelized = small_fleet();
  channelized.coordination.policy = CoordinationPolicy::kChannelized;
  channelized.coordination.channels = 4;

  const FleetResult raw = FleetSimulator(same).run();
  const FleetResult part = FleetSimulator(channelized).run();
  const std::vector<CellPlan> raw_plans = plans_for(same);
  const std::vector<CellPlan> part_plans = plans_for(channelized);
  double worst_raw = -400.0;
  double worst_part = -400.0;
  for (std::size_t i = 0; i < raw_plans.size(); ++i) {
    worst_raw = std::max(worst_raw, raw_plans[i].interference_dbm);
    worst_part = std::max(worst_part, part_plans[i].interference_dbm);
  }
  EXPECT_LT(worst_part, worst_raw);
  // Less interference can only help service.
  EXPECT_GE(part.stats.tags_read, raw.stats.tags_read);
}

TEST(FleetFaults, SimultaneousMultiReaderLossEvacuatesEveryTag) {
  FleetConfig config = small_fleet();
  config.epochs = 4;
  // Readers 0-2 all die for epochs 1-2 (D = 0.02 s): one survivor left.
  for (const int r : {0, 1, 2}) {
    config.faults.outages.scripted.push_back(
        fault::ScriptedOutage{r, 0.02, 0.04});
  }
  const FleetResult result = FleetSimulator(config).run();
  // Every orphan re-homed to the survivor: zero orphaned tag-seconds.
  EXPECT_EQ(result.fault.reader_outages, 3);
  EXPECT_GT(result.fault.orphan_handoffs, 0);
  EXPECT_DOUBLE_EQ(result.fault.orphaned_tag_s, 0.0);
  EXPECT_DOUBLE_EQ(result.fault.availability, 1.0);
  EXPECT_GT(result.stats.tags_read, 0);
  // And the evacuation is reproducible bit for bit.
  const FleetResult again = FleetSimulator(config).run();
  EXPECT_EQ(fingerprint(result.stats), fingerprint(again.stats));
  EXPECT_EQ(fault::fingerprint(result.fault),
            fault::fingerprint(again.fault));
}

TEST(FleetFaults, TotalBlackoutHasNowhereToEvacuate) {
  FleetConfig config = small_fleet();
  config.epochs = 3;
  for (int r = 0; r < 4; ++r) {
    config.faults.outages.scripted.push_back(
        fault::ScriptedOutage{r, 0.02, 0.02});  // Epoch 1: all dark.
  }
  const FleetResult result = FleetSimulator(config).run();
  // Re-handoff cannot help when no reader is live: one epoch of total
  // orphanhood for all 60 tags.
  EXPECT_NEAR(result.fault.availability, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(result.fault.orphaned_tag_s, 60.0 * 0.02, 1e-9);
  EXPECT_EQ(result.fault.reader_outages, 4);
}

TEST(FleetFaults, BackhaulHookRunsWithoutASchedule) {
  // No fault schedule, but reader 3 cannot reach a gateway: its tags
  // re-home to live, reachable readers before the first epoch.
  FleetConfig config = small_fleet();
  int calls = 0;
  config.backhaul_reachable = [&calls](int /*epoch*/,
                                       const std::vector<std::uint8_t>& live) {
    ++calls;
    std::vector<std::uint8_t> reachable = live;
    reachable[3] = 0;
    return reachable;
  };
  const FleetResult result = FleetSimulator(config).run();
  EXPECT_EQ(calls, config.epochs);
  ASSERT_EQ(result.last_epoch.size(), 4u);
  EXPECT_EQ(result.last_epoch[3].tags_assigned, 0);
  EXPECT_GT(result.fault.orphan_handoffs, 0);
  EXPECT_DOUBLE_EQ(result.fault.availability, 1.0);
  EXPECT_EQ(result.fault.reader_outages, 0);
}

// --- ReaderCell poll retry machine ---------------------------------------
// One reader at the origin and one tag a metre in front of it, with the
// epoch's fault state built by hand so each test says exactly what fails.

class CellRetryTest : public ::testing::Test {
 protected:
  CellRetryTest() {
    tags_.push_back(core::MmTag::prototype_at(
        core::Pose{{1.0, 0.0}, phys::kPi}, 7));
    recovery_.quarantine_epochs = 2;
  }

  ReaderCell make_cell() const {
    CellConfig config;
    config.aloha.slot_success_probability = 1.0;  // Discovery never misses.
    return ReaderCell(
        0, reader::MmWaveReader::prototype_at(core::Pose{{0.0, 0.0}, 0.0}),
        &env_, &rates_, config, recovery_);
  }

  /// Everything up and lossless; the tag blocked with `block_probability`.
  static fault::EpochFaults blocked(double block_probability) {
    fault::EpochFaults faults;
    faults.reader_up = {1.0};
    faults.reader_restarted = {0};
    faults.reader_skew_loss_s = {0.0};
    faults.tag_brownout = {0};
    faults.tag_loss_db = {0.0};
    faults.tag_blocked = {static_cast<std::uint8_t>(
        block_probability > 0.0 ? 1 : 0)};
    faults.block_probability = block_probability;
    return faults;
  }

  CellEpochResult run(ReaderCell& cell, int epoch,
                      const fault::EpochFaults& faults) {
    sim::Rng rng = sim::make_rng(
        sim::derive_seed(11, static_cast<std::uint64_t>(epoch)));
    return cell.run_epoch(tags_, roster_, CellPlan{}, epoch * kEpochS,
                          kEpochS, faults, rng);
  }

  static constexpr double kEpochS = 0.01;
  channel::Environment env_;
  phy::RateTable rates_ = phy::RateTable::mmtag_standard();
  std::vector<core::MmTag> tags_;
  std::vector<std::size_t> roster_ = {0};
  fault::RecoveryConfig recovery_;
};

TEST_F(CellRetryTest, SilentTagBurnsTheBudgetThenIsQuarantinedOnce) {
  ReaderCell cell = make_cell();
  const CellEpochResult result = run(cell, 0, blocked(1.0));
  EXPECT_EQ(result.tags_discovered, 1);
  EXPECT_EQ(result.polls_timed_out, recovery_.poll_retry_budget + 1);
  EXPECT_EQ(result.quarantines, 1);
  EXPECT_EQ(result.service[0].polls, recovery_.poll_retry_budget + 1);
  EXPECT_DOUBLE_EQ(result.service[0].delivered_bits, 0.0);
}

TEST_F(CellRetryTest, QuarantinedTagSitsOutItsSentenceThenIsPolledAgain) {
  ReaderCell cell = make_cell();
  ASSERT_EQ(run(cell, 0, blocked(1.0)).quarantines, 1);
  for (int e = 1; e <= recovery_.quarantine_epochs; ++e) {
    const CellEpochResult benched = run(cell, e, blocked(0.0));
    EXPECT_EQ(benched.tags_discovered, 0) << "epoch " << e;
    EXPECT_FALSE(benched.service[0].read) << "epoch " << e;
    EXPECT_EQ(benched.service[0].polls, 0) << "epoch " << e;
  }
  const CellEpochResult back =
      run(cell, recovery_.quarantine_epochs + 1, blocked(0.0));
  EXPECT_EQ(back.tags_discovered, 1);
  EXPECT_GT(back.service[0].polls, 0);
  EXPECT_GT(back.service[0].delivered_bits, 0.0);
  EXPECT_EQ(back.polls_timed_out, 0);
}

TEST_F(CellRetryTest, AResponseResetsTheFailureCount) {
  // Each poll is lost with probability 0.25. Without the reset the tag
  // would be quarantined at its (budget + 1)-th timeout; with it, only
  // budget + 1 consecutive timeouts bench the tag.
  ReaderCell cell = make_cell();
  const CellEpochResult result = run(cell, 0, blocked(0.25));
  EXPECT_GT(result.polls_timed_out, recovery_.poll_retry_budget + 1);
  EXPECT_GT(result.service[0].polls, result.polls_timed_out);
  EXPECT_LE(result.quarantines, 1);
}

TEST_F(CellRetryTest, RestartClearsTheSentence) {
  ReaderCell restarted = make_cell();
  ReaderCell untouched = make_cell();
  ASSERT_EQ(run(restarted, 0, blocked(1.0)).quarantines, 1);
  ASSERT_EQ(run(untouched, 0, blocked(1.0)).quarantines, 1);
  (void)restarted.on_reader_restarted();
  const CellEpochResult fresh = run(restarted, 1, blocked(0.0));
  EXPECT_EQ(fresh.tags_discovered, 1);
  EXPECT_GT(fresh.service[0].polls, 0);
  EXPECT_EQ(run(untouched, 1, blocked(0.0)).tags_discovered, 0);
}

// --- Config validation ---------------------------------------------------

/// The simulator must refuse `config` with an error naming `field`.
void ExpectRejected(const FleetConfig& config, const std::string& field) {
  try {
    const FleetSimulator fleet(config);
    ADD_FAILURE() << "accepted an invalid " << field;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
        << error.what();
  }
}

TEST(FleetValidate, AcceptsDefaultsAndAnEmptyFloor) {
  EXPECT_NO_THROW(FleetConfig{}.validate());
  FleetConfig empty = small_fleet();
  empty.layout.tags = 0;
  EXPECT_NO_THROW(FleetSimulator{empty});
}

TEST(FleetValidate, EveryOutOfRangeFieldIsRejectedByName) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // One bad value per rule, each applied alone to a valid fleet. Zero
  // channels would divide by zero in the channelized coordinator, and a
  // beamwidth or sector that is not positive leaves no usable codebook.
  // A tag blocked all run, polled with no backoff and no retry budget:
  // with a zero timeout an unanswered poll cost no airtime, so the cell
  // re-polled it forever at one instant and run() never returned; a
  // negative timeout ran time backward the same way, and a NaN one ended
  // the epoch after one poll.
  const auto zero_cost_retries = [](FleetConfig& c, double timeout_s) {
    c.faults.blockage.enter_rate_hz = 1e6;
    c.faults.blockage.mean_burst_s = 10.0;
    c.faults.blockage.block_probability = 1.0;
    c.recovery.poll_backoff_base_s = 0.0;
    c.recovery.poll_retry_budget = 0;
    c.recovery.poll_timeout_s = timeout_s;
  };
  const std::vector<std::pair<std::string, std::function<void(FleetConfig&)>>>
      cases = {
          {"LayoutConfig::readers", [](FleetConfig& c) { c.layout.readers = 0; }},
          {"LayoutConfig::tags", [](FleetConfig& c) { c.layout.tags = -5; }},
          {"LayoutConfig::margin_m",
           [](FleetConfig& c) { c.layout.margin_m = -0.1; }},
          {"LayoutConfig::margin_m",
           [](FleetConfig& c) { c.layout.margin_m = kNan; }},
          {"LayoutConfig::width_m",
           [](FleetConfig& c) { c.layout.width_m = 2.0 * c.layout.margin_m; }},
          {"LayoutConfig::height_m",
           [](FleetConfig& c) { c.layout.height_m = 0.5 * c.layout.margin_m; }},
          {"LayoutConfig::height_m",
           [](FleetConfig& c) { c.layout.height_m = kNan; }},
          {"FleetConfig::epochs", [](FleetConfig& c) { c.epochs = 0; }},
          {"FleetConfig::epoch_duration_s",
           [](FleetConfig& c) { c.epoch_duration_s = 0.0; }},
          {"FleetConfig::epoch_duration_s",
           [](FleetConfig& c) { c.epoch_duration_s = -0.02; }},
          {"FleetConfig::epoch_duration_s",
           [](FleetConfig& c) { c.epoch_duration_s = kNan; }},
          // An infinite epoch hung a chaos run: the fault engine drew
          // Poisson outages until t reached epochs * inf.
          {"FleetConfig::epoch_duration_s",
           [](FleetConfig& c) { c.epoch_duration_s = kInf; }},
          {"FleetConfig::mobile_fraction",
           [](FleetConfig& c) { c.mobile_fraction = -0.1; }},
          {"FleetConfig::mobile_fraction",
           [](FleetConfig& c) { c.mobile_fraction = 1.5; }},
          {"FleetConfig::mobile_fraction",
           [](FleetConfig& c) { c.mobile_fraction = kNan; }},
          {"FleetConfig::mobile_speed_mps",
           [](FleetConfig& c) { c.mobile_speed_mps = -1.0; }},
          {"FleetConfig::mobile_speed_mps",
           [](FleetConfig& c) { c.mobile_speed_mps = kNan; }},
          {"FleetConfig::coordination.channels",
           [](FleetConfig& c) {
             c.coordination.policy = CoordinationPolicy::kChannelized;
             c.coordination.channels = 0;
           }},
          {"FleetConfig::coordination.channels",
           [](FleetConfig& c) { c.coordination.channels = -2; }},
          {"FleetConfig::cell.beamwidth_deg",
           [](FleetConfig& c) { c.cell.beamwidth_deg = 0.0; }},
          {"FleetConfig::cell.beamwidth_deg",
           [](FleetConfig& c) { c.cell.beamwidth_deg = kNan; }},
          {"FleetConfig::cell.sector_half_angle_rad",
           [](FleetConfig& c) { c.cell.sector_half_angle_rad = 0.0; }},
          {"FleetConfig::cell.sector_half_angle_rad",
           [](FleetConfig& c) {
             c.cell.sector_half_angle_rad = phys::kPi + 1e-9;
           }},
          {"FleetConfig::cell.sector_half_angle_rad",
           [](FleetConfig& c) { c.cell.sector_half_angle_rad = kNan; }},
          {"FleetConfig::faults.outages.rate_hz",
           [](FleetConfig& c) { c.faults.outages.rate_hz = -0.1; }},
          {"FleetConfig::faults.outages.mean_duration_s",
           [](FleetConfig& c) { c.faults.outages.mean_duration_s = kInf; }},
          {"FleetConfig::faults.outages.scripted[1].reader",
           [](FleetConfig& c) {
             c.faults.outages.scripted = {{0, 0.0, 0.01}, {-1, 0.0, 0.01}};
           }},
          {"FleetConfig::faults.outages.scripted[2].reader must be < "
           "layout.readers",
           [](FleetConfig& c) {
             c.faults.outages.scripted = {{0, 0.0, 0.01},
                                          {c.layout.readers - 1, 0.0, 0.01},
                                          {c.layout.readers, 0.0, 0.01}};
           }},
          {"FleetConfig::faults.outages.scripted[0].reader must be < "
           "layout.readers",
           [](FleetConfig& c) {
             c.faults.outages.scripted = {{1 << 30, 0.0, 0.01}};
           }},
          {"FleetConfig::faults.outages.scripted[0].start_s",
           [](FleetConfig& c) {
             c.faults.outages.scripted = {{0, kNan, 0.01}};
           }},
          {"FleetConfig::faults.outages.scripted[0].duration_s",
           [](FleetConfig& c) {
             c.faults.outages.scripted = {{0, 0.0, kInf}};
           }},
          {"FleetConfig::faults.brownouts.affected_fraction",
           [](FleetConfig& c) { c.faults.brownouts.affected_fraction = 1.5; }},
          {"FleetConfig::faults.brownouts.affected_fraction",
           [](FleetConfig& c) { c.faults.brownouts.affected_fraction = kNan; }},
          {"FleetConfig::faults.brownouts.burst_load_w",
           [](FleetConfig& c) { c.faults.brownouts.burst_load_w = -1e-3; }},
          {"FleetConfig::faults.stuck.affected_fraction",
           [](FleetConfig& c) { c.faults.stuck.affected_fraction = -0.1; }},
          {"FleetConfig::faults.stuck.stuck_elements",
           [](FleetConfig& c) { c.faults.stuck.stuck_elements = -1; }},
          {"FleetConfig::faults.stuck.array_elements",
           [](FleetConfig& c) { c.faults.stuck.array_elements = 0; }},
          {"FleetConfig::faults.blockage.enter_rate_hz",
           [](FleetConfig& c) { c.faults.blockage.enter_rate_hz = kNan; }},
          {"FleetConfig::faults.blockage.mean_burst_s",
           [](FleetConfig& c) { c.faults.blockage.mean_burst_s = -0.2; }},
          {"FleetConfig::faults.blockage.attenuation_db",
           [](FleetConfig& c) { c.faults.blockage.attenuation_db = -3.0; }},
          {"FleetConfig::faults.blockage.block_probability",
           [](FleetConfig& c) { c.faults.blockage.block_probability = 1.2; }},
          {"FleetConfig::faults.drift.sigma_ppm",
           [](FleetConfig& c) { c.faults.drift.sigma_ppm = kInf; }},
          {"FleetConfig::recovery.poll_retry_budget",
           [](FleetConfig& c) { c.recovery.poll_retry_budget = -1; }},
          {"FleetConfig::recovery.poll_backoff_base_s",
           [](FleetConfig& c) { c.recovery.poll_backoff_base_s = -1e-6; }},
          {"FleetConfig::recovery.poll_backoff_base_s",
           [](FleetConfig& c) { c.recovery.poll_backoff_base_s = kInf; }},
          {"FleetConfig::recovery.poll_timeout_s",
           [&](FleetConfig& c) { zero_cost_retries(c, 0.0); }},
          {"FleetConfig::recovery.poll_timeout_s",
           [&](FleetConfig& c) { zero_cost_retries(c, -50e-6); }},
          {"FleetConfig::recovery.poll_timeout_s",
           [&](FleetConfig& c) { zero_cost_retries(c, kNan); }},
          {"FleetConfig::recovery.quarantine_epochs",
           [](FleetConfig& c) { c.recovery.quarantine_epochs = -1; }},
      };
  // Every boundary value is accepted, the hang's config with a positive
  // timeout among them.
  FleetConfig edge = small_fleet();
  zero_cost_retries(edge, 50e-6);
  edge.coordination.channels = 1;
  edge.cell.sector_half_angle_rad = phys::kPi;
  edge.faults.outages.scripted = {{0, -1.0, 0.0},
                                  {edge.layout.readers - 1, 0.0, 0.01}};
  edge.faults.brownouts.affected_fraction = 1.0;
  edge.faults.brownouts.burst_load_w = 0.0;
  edge.faults.stuck.affected_fraction = 1.0;
  edge.faults.stuck.stuck_elements = 0;
  edge.faults.stuck.array_elements = 1;
  edge.faults.blockage.attenuation_db = 0.0;
  edge.recovery.quarantine_epochs = 0;
  EXPECT_NO_THROW(edge.validate());
  for (const auto& [field, corrupt] : cases) {
    FleetConfig config = small_fleet();
    corrupt(config);
    EXPECT_THROW(config.validate(), std::invalid_argument) << field;
    ExpectRejected(config, field);
    if (field.starts_with("LayoutConfig::")) {
      EXPECT_THROW((void)make_layout(config.layout), std::invalid_argument)
          << field;
    }
  }
}

TEST(FleetFaults, FaultedAggregatesBitIdenticalAcrossThreadCounts) {
  FleetConfig base = small_fleet();
  base.epochs = 3;
  base.faults = fault::FaultSchedule::chaos(0.7);

  std::uint64_t fleet_ref = 0;
  std::uint64_t fault_ref = 0;
  bool first = true;
  for (const int threads : {1, 4, sim::default_thread_count()}) {
    FleetConfig config = base;
    config.threads = threads;
    const FleetResult result = FleetSimulator(config).run();
    const std::uint64_t fleet_fp = fingerprint(result.stats);
    const std::uint64_t fault_fp = fault::fingerprint(result.fault);
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

}  // namespace
}  // namespace mmtag::deploy
