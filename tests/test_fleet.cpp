// Fleet simulator (src/deploy): layout determinism, end-to-end service,
// thread-count invariance of the aggregates, mobility/handoff, the
// cache's raytrace savings on static scenarios, the cell's poll retry
// machine, and config validation.
#include "src/deploy/fleet.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
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
#include "src/phys/units.hpp"
#include "src/phy/rate_table.hpp"
#include "src/reader/interference.hpp"
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
    EXPECT_GE(pa.x, kLayoutMarginM);
    EXPECT_LE(pa.x, config.width_m - kLayoutMarginM);
    EXPECT_GE(pa.y, kLayoutMarginM);
    EXPECT_LE(pa.y, config.height_m - kLayoutMarginM);
  }
}

TEST(Layout, PoolSizeChangesNoTag) {
  // One pool task per tag: each fills its own slot from its own stream,
  // so 1, 3 (uneven) and 4 threads give the inline layout bit for bit.
  LayoutConfig config;
  config.width_m = 32.0;
  config.height_m = 20.0;
  config.readers = 16;
  config.tags = 301;
  config.seed = 11;
  const FleetLayout want = make_layout(config);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const int threads : {1, 3, 4}) {
    SCOPED_TRACE(threads);
    sim::ThreadPool pool(threads);
    const FleetLayout got = make_layout(config, pool);
    ASSERT_EQ(got.tags.size(), want.tags.size());
    for (std::size_t i = 0; i < want.tags.size(); ++i) {
      const core::Pose& g = got.tags[i].pose();
      const core::Pose& w = want.tags[i].pose();
      EXPECT_EQ(bits(g.position.x), bits(w.position.x)) << "tag " << i;
      EXPECT_EQ(bits(g.position.y), bits(w.position.y)) << "tag " << i;
      EXPECT_EQ(bits(g.orientation_rad), bits(w.orientation_rad))
          << "tag " << i;
      EXPECT_EQ(got.tags[i].id(), want.tags[i].id()) << "tag " << i;
    }
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
  sim::ThreadPool pool(3);  // The caller's pool, of another size.
  const FleetResult given = fleet.run(make_layout(config.layout), pool);
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
  sim::ThreadPool pool(1);
  for (const LayoutConfig& other : {wider, deeper, fewer_readers, more_tags}) {
    EXPECT_THROW((void)fleet.run(make_layout(other), pool),
                 std::invalid_argument);
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
  // Long epochs: walkers cover 0.3 m per step and cross cell borders.
  config.epoch_duration_s = 0.2;
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
  // Eight cells on four channels: cells v and v + 4 share one, so each
  // victim hears one aggressor's raw carrier and six through the
  // adjacent-channel rejection, each with its tag echo.
  static_assert(kCoordinationChannels == 4);
  FleetConfig config = small_fleet();
  config.layout.readers = 8;
  config.coordination.policy = CoordinationPolicy::kChannelized;
  const std::vector<CellPlan> plans = plans_for(config);
  const FleetLayout layout = make_layout(config.layout);
  std::vector<reader::MmWaveReader> readers;
  for (const core::Pose& pose : layout.reader_poses) {
    readers.push_back(reader::MmWaveReader::prototype_at(pose));
  }
  constexpr double kRejectionDb = 30.0;  // Adjacent-channel rejection.
  constexpr double kTagEchoDb = 30.0;    // Tag echo below its carrier.
  const auto with_echo_w = [](double carrier_dbm) {
    return phys::dbm_to_watts(carrier_dbm) +
           phys::dbm_to_watts(carrier_dbm - kTagEchoDb);
  };
  ASSERT_EQ(plans.size(), 8u);
  // The plan a single shared channel would give: every carrier raw.
  std::vector<CellPlan> one_channel = plans;
  for (std::size_t v = 0; v < plans.size(); ++v) {
    EXPECT_EQ(plans[v].channel, static_cast<int>(v % 4));
    double planned_w = 0.0;
    double raw_w = 0.0;
    double all_rejected_w = 0.0;
    for (std::size_t a = 0; a < readers.size(); ++a) {
      if (a == v) continue;
      const double carrier_dbm = reader::cross_reader_interference_dbm(
          readers[a], readers[v], layout.environment);
      const bool same_channel = a % 4 == v % 4;
      planned_w += with_echo_w(same_channel ? carrier_dbm
                                            : carrier_dbm - kRejectionDb);
      raw_w += with_echo_w(carrier_dbm);
      all_rejected_w += with_echo_w(carrier_dbm - kRejectionDb);
    }
    EXPECT_DOUBLE_EQ(plans[v].interference_dbm, phys::watts_to_dbm(planned_w));
    // The shared channel's aggressor counts raw, the others rejected.
    EXPECT_GT(plans[v].interference_dbm, phys::watts_to_dbm(all_rejected_w));
    EXPECT_LT(plans[v].interference_dbm, phys::watts_to_dbm(raw_w));
    one_channel[v].interference_dbm = phys::watts_to_dbm(raw_w);
  }

  // Less interference can only help service: every cell, run for one
  // fault-free epoch on the same stream under each plan, reads at least
  // as many tags channelized as on one shared channel.
  const phy::RateTable rates = phy::RateTable::mmtag_standard();
  const std::vector<std::vector<std::size_t>> rosters =
      FleetCoordinator::rosters(
          FleetCoordinator::initial_assignment(layout.tags, readers),
          readers.size());
  fault::FaultEngine engine(fault::FaultSchedule{}, readers.size(),
                            layout.tags.size(), 1, config.epoch_duration_s,
                            config.seed);
  const fault::EpochFaults& faults = engine.begin_epoch(0);
  const auto tags_read = [&](std::size_t c, const CellPlan& plan) {
    ReaderCell cell(static_cast<int>(c), readers[c], &layout.environment,
                    &rates, config.cell);
    sim::Rng rng = sim::make_rng(sim::derive_seed(config.seed, c));
    const CellEpochResult result =
        cell.run_epoch(layout.tags, rosters[c], plan, 0.0,
                       config.epoch_duration_s, faults, rng);
    return std::count_if(result.service.begin(), result.service.end(),
                         [](const TagService& s) { return s.read(); });
  };
  long read_channelized = 0;
  long read_one_channel = 0;
  for (std::size_t c = 0; c < readers.size(); ++c) {
    const long channelized = tags_read(c, plans[c]);
    const long shared = tags_read(c, one_channel[c]);
    EXPECT_GE(channelized, shared) << "cell " << c;
    read_channelized += channelized;
    read_one_channel += shared;
  }
  EXPECT_GT(read_channelized, read_one_channel);
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
  }

  ReaderCell make_cell() const {
    CellConfig config;
    config.aloha.slot_success_probability = 1.0;  // Discovery never misses.
    return ReaderCell(
        0, reader::MmWaveReader::prototype_at(core::Pose{{0.0, 0.0}, 0.0}),
        &env_, &rates_, config);
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
};

TEST_F(CellRetryTest, SilentTagBurnsTheBudgetThenIsQuarantinedOnce) {
  ReaderCell cell = make_cell();
  const CellEpochResult result = run(cell, 0, blocked(1.0));
  EXPECT_EQ(result.tags_discovered, 1);
  EXPECT_EQ(result.polls_timed_out, kPollRetryBudget + 1);
  EXPECT_EQ(result.quarantines, 1);
  EXPECT_EQ(result.service[0].polls, kPollRetryBudget + 1);
  EXPECT_DOUBLE_EQ(result.service[0].delivered_bits, 0.0);
}

TEST_F(CellRetryTest, QuarantinedTagSitsOutItsSentenceThenIsPolledAgain) {
  ReaderCell cell = make_cell();
  ASSERT_EQ(run(cell, 0, blocked(1.0)).quarantines, 1);
  // The sentence is one epoch, served even though the link has healed.
  const CellEpochResult benched = run(cell, 1, blocked(0.0));
  EXPECT_EQ(benched.tags_discovered, 0);
  EXPECT_FALSE(benched.service[0].read());
  EXPECT_EQ(benched.service[0].polls, 0);
  const CellEpochResult back = run(cell, 2, blocked(0.0));
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
  EXPECT_GT(result.polls_timed_out, kPollRetryBudget + 1);
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
  // One bad value per rule, each applied alone to a valid fleet.
  const std::vector<std::pair<std::string, std::function<void(FleetConfig&)>>>
      cases = {
          {"LayoutConfig::readers", [](FleetConfig& c) { c.layout.readers = 0; }},
          {"LayoutConfig::tags", [](FleetConfig& c) { c.layout.tags = -5; }},
          {"LayoutConfig::width_m",
           [](FleetConfig& c) { c.layout.width_m = 2.0 * kLayoutMarginM; }},
          {"LayoutConfig::height_m",
           [](FleetConfig& c) { c.layout.height_m = 0.5 * kLayoutMarginM; }},
          {"LayoutConfig::height_m",
           [](FleetConfig& c) { c.layout.height_m = kNan; }},
          // An infinite floor drew tag positions from
          // uniform_real_distribution(margin, inf).
          {"LayoutConfig::width_m",
           [](FleetConfig& c) { c.layout.width_m = kInf; }},
          {"LayoutConfig::height_m",
           [](FleetConfig& c) { c.layout.height_m = kInf; }},
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
          // Finite, but the run's length, epochs * epoch_duration_s, which
          // run() divides by, was +inf.
          {"FleetConfig::epoch_duration_s",
           [](FleetConfig& c) { c.epoch_duration_s = 1e308; }},
          // Finite, and so was the run's length, but a mover's step,
          // kMobileSpeedMps * epoch_duration_s, was +inf.
          {"FleetConfig::epoch_duration_s",
           [](FleetConfig& c) {
             c.epochs = 1;
             c.epoch_duration_s = 1.5e308;
           }},
          {"FleetConfig::mobile_fraction",
           [](FleetConfig& c) { c.mobile_fraction = -0.1; }},
          {"FleetConfig::mobile_fraction",
           [](FleetConfig& c) { c.mobile_fraction = 1.5; }},
          {"FleetConfig::mobile_fraction",
           [](FleetConfig& c) { c.mobile_fraction = kNan; }},
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
          {"FleetConfig::faults.stuck.affected_fraction",
           [](FleetConfig& c) { c.faults.stuck.affected_fraction = -0.1; }},
          {"FleetConfig::faults.stuck.stuck_elements",
           [](FleetConfig& c) { c.faults.stuck.stuck_elements = -1; }},
          {"FleetConfig::faults.blockage.enter_rate_hz",
           [](FleetConfig& c) { c.faults.blockage.enter_rate_hz = kNan; }},
          {"FleetConfig::faults.blockage.mean_burst_s",
           [](FleetConfig& c) { c.faults.blockage.mean_burst_s = -0.2; }},
          {"FleetConfig::faults.blockage.block_probability",
           [](FleetConfig& c) { c.faults.blockage.block_probability = 1.2; }},
          {"FleetConfig::faults.drift.sigma_ppm",
           [](FleetConfig& c) { c.faults.drift.sigma_ppm = kInf; }},
      };
  // Every boundary value is accepted.
  FleetConfig edge = small_fleet();
  edge.faults.outages.scripted = {{0, -1.0, 0.0},
                                  {edge.layout.readers - 1, 0.0, 0.01}};
  edge.faults.brownouts.affected_fraction = 1.0;
  edge.faults.stuck.affected_fraction = 1.0;
  edge.faults.stuck.stuck_elements = 0;
  edge.faults.blockage.block_probability = 1.0;
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
