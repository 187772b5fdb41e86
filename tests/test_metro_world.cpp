// Metro world model (src/scale/world): batched link evaluation against
// the scalar reference, thread-count invariance, indexed-vs-linear query
// path equivalence, energy duty cycling, mobility/handoff accounting, the
// index after batched rebucketing, and config validation.
#include "src/scale/world.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/phy/rate_table.hpp"
#include "src/scale/epoch_batch.hpp"

namespace mmtag::scale {
namespace {

MetroConfig small_config() {
  MetroConfig cfg;
  cfg.width_m = 60.0;
  cfg.height_m = 60.0;
  cfg.readers_x = 3;
  cfg.readers_y = 3;
  cfg.tags = 2000;
  cfg.index_cell_m = 4.0;
  cfg.seed = 77;
  return cfg;
}

TEST(BatchLinkModel, TierRangesMatchClosedFormBudget) {
  const auto budget = phys::BackscatterLinkBudget::mmtag_prototype();
  const auto rates = phy::RateTable::mmtag_standard();
  const BatchLinkModel model = BatchLinkModel::from_budget(budget, rates);
  ASSERT_EQ(model.tier_r2_m2.size(), rates.tiers().size());
  for (std::size_t t = 0; t < rates.tiers().size(); ++t) {
    const double r =
        budget.max_range_m(rates.required_power_dbm(rates.tiers()[t]));
    EXPECT_DOUBLE_EQ(model.tier_r2_m2[t], r * r);
    EXPECT_DOUBLE_EQ(model.tier_rate_bps[t], rates.tiers()[t].bit_rate_bps);
  }
  // Tiers are rate-descending, so range-ascending; detection = slowest.
  for (std::size_t t = 1; t < model.tier_r2_m2.size(); ++t) {
    EXPECT_GT(model.tier_r2_m2[t], model.tier_r2_m2[t - 1]);
  }
  EXPECT_DOUBLE_EQ(model.detect_r2_m2, model.tier_r2_m2.back());
}

TEST(BatchLinkModel, SquaredDomainAgreesWithDbDomainRateTable) {
  // The squared-distance comparison must reproduce the dB-domain tier
  // decision of RateTable::achievable_rate_bps at every distance.
  const auto budget = phys::BackscatterLinkBudget::mmtag_prototype();
  const auto rates = phy::RateTable::mmtag_standard();
  const BatchLinkModel model = BatchLinkModel::from_budget(budget, rates);
  for (double d = 0.05; d < 8.0; d += 0.05) {
    const double by_db =
        rates.achievable_rate_bps(budget.received_power_dbm(d));
    const double by_d2 = model.rate_for_d2(d * d);
    EXPECT_DOUBLE_EQ(by_d2, by_db) << "distance " << d;
  }
}

TEST(EpochBatcher, SlabResultsMatchScalarReference) {
  const auto budget = phys::BackscatterLinkBudget::mmtag_prototype();
  const auto rates = phy::RateTable::mmtag_standard();
  const BatchLinkModel model = BatchLinkModel::from_budget(budget, rates);

  TagStore store;
  std::vector<TagSlot> slots;
  for (int i = 0; i < 64; ++i) {
    const double x = 0.3 * i;
    const double y = 0.1 * i - 2.0;
    slots.push_back(store.create(x, y, 0.0));
    ASSERT_EQ(store.xs()[slots.back()], x);
    ASSERT_EQ(store.ys()[slots.back()], y);
  }
  EpochBatcher batcher;
  const BatchResult& batch = batcher.evaluate(store, slots, 3.0, 1.0, model);
  ASSERT_EQ(batch.count, slots.size());
  std::uint64_t expected_detected = 0;
  for (std::size_t i = 0; i < batch.count; ++i) {
    const double dx = store.xs()[slots[i]] - 3.0;
    const double dy = store.ys()[slots[i]] - 1.0;
    const double d2 = dx * dx + dy * dy;
    EXPECT_EQ(batch.d2[i], d2);
    EXPECT_EQ(batch.rate_bps[i], model.rate_for_d2(d2));
    EXPECT_EQ(batch.detected[i] != 0, d2 < model.detect_r2_m2);
    if (d2 < model.detect_r2_m2) ++expected_detected;
  }
  EXPECT_EQ(batch.detected_count, expected_detected);
}

TEST(MetroWorld, EpochAggregatesAreThreadCountInvariant) {
  MetroStats ref_stats;
  std::uint64_t ref_state = 0;
  for (const int threads : {1, 2, 4}) {
    MetroWorld world(small_config());
    sim::ThreadPool pool(threads);
    for (int e = 0; e < 3; ++e) (void)world.run_epoch(pool);
    if (threads == 1) {
      ref_stats = world.stats();
      ref_state = world.state_fingerprint();
      continue;
    }
    EXPECT_EQ(world.stats().fingerprint(), ref_stats.fingerprint())
        << "threads=" << threads;
    EXPECT_EQ(world.state_fingerprint(), ref_state)
        << "threads=" << threads;
  }
}

TEST(MetroWorld, IndexedAndLinearPathsAgreeBitForBit) {
  MetroConfig indexed = small_config();
  MetroConfig linear = small_config();
  linear.use_index = false;

  MetroWorld wi(indexed);
  MetroWorld wl(linear);
  sim::ThreadPool pool(2);
  for (int e = 0; e < 3; ++e) {
    (void)wi.run_epoch(pool);
    (void)wl.run_epoch(pool);
  }
  EXPECT_EQ(wi.stats().fingerprint(), wl.stats().fingerprint());
  EXPECT_EQ(wi.state_fingerprint(), wl.state_fingerprint());

  // ...while the indexed path inspected far fewer candidates.
  EXPECT_LT(wi.index().cost().candidates, wl.linear_candidates());
}

TEST(MetroWorld, ServesTagsAndDutyCyclesEnergy) {
  MetroWorld world(small_config());
  sim::ThreadPool pool(2);
  MetroEpochStats first = world.run_epoch(pool);
  EXPECT_GT(first.detected, 0u);
  EXPECT_GT(first.successes, 0u);
  EXPECT_EQ(first.new_reads, first.successes);  // Nothing read before.
  const MetroStats stats = world.stats();
  EXPECT_EQ(stats.tags_read, first.new_reads);
  EXPECT_GT(stats.delivered_bits, 0.0);

  // Energy stays within [0, cap] for every tag.
  const MetroConfig& cfg = world.config();
  for (std::size_t i = 0; i < world.store().size(); ++i) {
    EXPECT_GE(world.store().energies()[i], 0.0);
    EXPECT_LE(world.store().energies()[i], cfg.energy_cap_j);
  }
}

TEST(MetroWorld, RespondCostGatesSecondPoll) {
  // One reader, one tag in range, no mobility: with harvest below the
  // respond cost, the tag answers epoch 1, then browns out until its
  // harvest accumulates back over the threshold.
  MetroConfig cfg;
  cfg.width_m = 4.0;
  cfg.height_m = 4.0;
  cfg.readers_x = 1;
  cfg.readers_y = 1;
  cfg.tags = 1;
  cfg.index_cell_m = 1.0;
  cfg.move_fraction = 0.0;
  cfg.poll_success_prob = 1.0;
  cfg.initial_energy_j = 3e-6;
  cfg.harvest_j_per_epoch = 1e-6;
  cfg.respond_cost_j = 3.5e-6;
  cfg.energy_cap_j = 10e-6;
  cfg.seed = 5;
  MetroWorld world(cfg);
  sim::ThreadPool pool(1);
  const MetroEpochStats e1 = world.run_epoch(pool);  // 3+1=4 >= 3.5: answers.
  EXPECT_EQ(e1.successes, 1u);
  const MetroEpochStats e2 = world.run_epoch(pool);  // 0.5+1=1.5: browned out.
  EXPECT_EQ(e2.successes, 0u);
  EXPECT_EQ(e2.detected, 1u);  // Still discoverable, just energy-gated.
}

TEST(MetroWorld, MobilityMovesRebucketsAndHandsOff) {
  MetroConfig cfg = small_config();
  cfg.move_fraction = 0.5;
  cfg.speed_mps = 40.0;  // Big steps force cell and owner changes.
  MetroWorld world(cfg);
  sim::ThreadPool pool(2);
  MetroEpochStats epoch = world.run_epoch(pool);
  EXPECT_GT(epoch.moved, 0u);
  EXPECT_GT(epoch.rebuckets, 0u);
  EXPECT_GT(epoch.handoffs, 0u);
  EXPECT_LE(epoch.handoffs, epoch.moved);
  // The index tracked every move: occupancy unchanged, positions fresh.
  EXPECT_EQ(world.index().occupancy(), cfg.tags);
}

TEST(MetroWorld, MoveFractionZeroMovesNoTagAndOneMovesEveryTag) {
  for (const double fraction : {0.0, 1.0}) {
    SCOPED_TRACE(testing::Message() << "move_fraction " << fraction);
    MetroConfig cfg = small_config();
    cfg.move_fraction = fraction;
    MetroWorld world(cfg);
    sim::ThreadPool pool(2);
    const std::vector<double> xs(world.store().xs(),
                                 world.store().xs() + cfg.tags);
    for (int e = 0; e < 4; ++e) {
      EXPECT_EQ(world.run_epoch(pool).moved, fraction == 0.0 ? 0u : cfg.tags)
          << "epoch " << e;
    }
    if (fraction == 0.0) {
      EXPECT_EQ(std::vector<double>(world.store().xs(),
                                    world.store().xs() + cfg.tags),
                xs);
    }
  }
}

TEST(MetroWorld, IndexAfterMobilityEqualsAFreshBuild) {
  // Ten epochs of batched rebucketing at 20% movers leave the index a
  // fresh GridIndex of the final positions has, query for query.
  MetroConfig cfg = small_config();
  cfg.move_fraction = 0.2;
  cfg.speed_mps = 8.0;  // Steps of up to 2 m across 4 m cells.
  MetroWorld world(cfg);
  sim::ThreadPool pool(4);
  std::uint64_t rebuckets = 0;
  for (int e = 0; e < 10; ++e) rebuckets += world.run_epoch(pool).rebuckets;
  ASSERT_GT(rebuckets, 0u);
  GridIndex fresh(cfg.width_m, cfg.height_m, cfg.index_cell_m);
  const TagStore& store = world.store();
  for (std::size_t s = 0; s < store.size(); ++s) {
    fresh.insert(static_cast<TagSlot>(s), store.xs()[s], store.ys()[s]);
  }
  for (double cy = 0.0; cy <= cfg.height_m; cy += 7.5) {
    for (double cx = 0.0; cx <= cfg.width_m; cx += 7.5) {
      std::vector<TagSlot> a, b;
      fresh.gather_disc(cx, cy, 6.0, a);
      world.index().gather_disc(cx, cy, 6.0, b);
      EXPECT_EQ(a, b) << "disc at " << cx << ", " << cy;
    }
  }
}

TEST(MetroWorld, OwnerPartitionIsNearestReader) {
  MetroWorld world(small_config());
  // Centre of reader 4's rectangle (middle of 3x3).
  const double rx = world.reader_x(4);
  const double ry = world.reader_y(4);
  EXPECT_EQ(world.owner_of(rx, ry), 4);
  // A point is owned by the closest reader on the regular grid.
  for (int r = 0; r < world.readers(); ++r) {
    EXPECT_EQ(world.owner_of(world.reader_x(r), world.reader_y(r)), r);
  }
}

TEST(MetroWorld, StatsFingerprintTracksState) {
  MetroWorld a(small_config());
  MetroWorld b(small_config());
  MetroConfig other = small_config();
  other.seed = 78;
  MetroWorld c(other);
  sim::ThreadPool pool(2);
  (void)a.run_epoch(pool);
  (void)b.run_epoch(pool);
  (void)c.run_epoch(pool);
  EXPECT_EQ(a.stats().fingerprint(), b.stats().fingerprint());
  EXPECT_EQ(a.state_fingerprint(), b.state_fingerprint());
  EXPECT_NE(a.state_fingerprint(), c.state_fingerprint());
}

MetroConfig dense_config() {
  // 2 x 2 readers, 1 m apart: every tag sits inside a neighbor's top
  // rate tier, so a re-homed owner can actually serve it.
  MetroConfig cfg;
  cfg.width_m = 2.0;
  cfg.height_m = 2.0;
  cfg.readers_x = 2;
  cfg.readers_y = 2;
  cfg.tags = 300;
  cfg.index_cell_m = 0.5;
  cfg.seed = 91;
  return cfg;
}

TEST(MetroWorld, DormantControlPlaneIsLegacyBitForBit) {
  // A schedule whose epochs never arrive exercises the mask path without
  // downing anything; with the control plane off it must be
  // indistinguishable from the legacy world, byte for byte.
  MetroConfig legacy = small_config();
  MetroConfig dormant = small_config();
  dormant.domains.domains.push_back(
      resil::OutageDomain{0, 0, 0, 0, /*start=*/100, /*end=*/101});
  MetroWorld a(legacy);
  MetroWorld b(dormant);
  sim::ThreadPool pool(2);
  for (int e = 0; e < 3; ++e) {
    (void)a.run_epoch(pool);
    const MetroEpochStats stats = b.run_epoch(pool);
    EXPECT_EQ(stats.readers_down, 0u);
    EXPECT_EQ(stats.tags_adopted, 0u);
  }
  EXPECT_EQ(a.state_fingerprint(), b.state_fingerprint());
  EXPECT_EQ(a.stats().fingerprint(), b.stats().fingerprint());
  EXPECT_EQ(b.monitor(), nullptr);
}

TEST(MetroWorld, MonitorSuspectsADownedReaderFromItsSilence) {
  MetroConfig cfg = dense_config();
  cfg.control_plane = true;
  cfg.domains.domains.push_back(
      resil::OutageDomain{0, 0, 0, 0, /*start=*/1, /*end=*/4});
  MetroWorld world(cfg);
  ASSERT_NE(world.monitor(), nullptr);
  sim::ThreadPool pool(1);
  (void)world.run_epoch(pool);  // Healthy epoch: everyone reports.
  EXPECT_FALSE(world.monitor()->suspected(0));
  const MetroEpochStats outage = world.run_epoch(pool);
  EXPECT_EQ(outage.readers_down, 1u);
  // One silent epoch against a clean history crosses phi >= 1.
  EXPECT_TRUE(world.monitor()->suspected(0));
  EXPECT_EQ(world.monitor()->suspected_since(0), 2u);
}

TEST(MetroWorld, SuspectedReadersTagsAreAdoptedByNeighbors) {
  MetroConfig cfg = dense_config();
  cfg.control_plane = true;
  cfg.health.probe_interval_epochs = 4;
  cfg.domains.domains.push_back(
      resil::OutageDomain{0, 0, 0, 0, /*start=*/1, /*end=*/5});
  MetroWorld world(cfg);
  sim::ThreadPool pool(1);
  (void)world.run_epoch(pool);                        // Healthy.
  const MetroEpochStats first = world.run_epoch(pool);  // Down, unsuspected.
  EXPECT_EQ(first.tags_adopted, 0u);
  const MetroEpochStats second = world.run_epoch(pool);
  // Suspected entering this epoch: skipped, and its tags re-homed to a
  // neighbor 1 m away — inside the top rate tier, so they get read.
  EXPECT_EQ(second.readers_suspected, 1u);
  EXPECT_GT(second.tags_adopted, 0u);
}

TEST(MetroWorld, AdoptionAcrossAGridTooWideForIntSquaredDistances) {
  // 46,342 readers 1 m apart in a strip: reader 0 and reader 46,341 are
  // 46,341 columns apart, whose square overflows an int.
  MetroConfig cfg;
  cfg.readers_x = 46342;
  cfg.readers_y = 1;
  cfg.width_m = 46342.0;
  cfg.height_m = 1.0;
  cfg.index_cell_m = 4.0;
  cfg.tags = 16;
  cfg.poll_success_prob = 1.0;
  cfg.harvest_j_per_epoch = cfg.respond_cost_j;
  // A step far longer than the strip clamps every mover to an end, so
  // from epoch 1 on each tag is reader 0's (x = 0) or reader 46,341's.
  cfg.move_fraction = 1.0;
  cfg.speed_mps = 1e9;
  cfg.control_plane = true;
  cfg.health.phi_suspect = 0.5;  // One miss suspects.
  // Readers without tags are suspected after epoch 0 and probe on even
  // epochs; reader 0, down from epoch 3, sits out epoch 4.
  cfg.domains.domains.push_back(
      resil::OutageDomain{0, 0, 0, 0, /*start=*/3, /*end=*/100});
  MetroWorld world(cfg);
  sim::ThreadPool pool(2);
  for (int e = 0; e < 4; ++e) (void)world.run_epoch(pool);
  const resil::HealthMonitor& monitor = *world.monitor();
  ASSERT_FALSE(monitor.should_serve(0));
  ASSERT_TRUE(monitor.should_serve(1));
  ASSERT_TRUE(monitor.should_serve(46341));
  std::uint64_t reader0_tags = 0;
  for (std::size_t t = 0; t < world.store().size(); ++t) {
    if (world.owner_of(world.store().xs()[t], world.store().ys()[t]) == 0) {
      ++reader0_tags;
    }
  }
  ASSERT_GT(reader0_tags, 0u);
  // Reader 1, 1 m away, reads every one of them; reader 46,341 could
  // read none.
  EXPECT_EQ(world.run_epoch(pool).tags_adopted, reader0_tags);
}

TEST(MetroWorld, ControlPlaneEpochsAreThreadCountInvariant) {
  MetroConfig cfg = dense_config();
  cfg.control_plane = true;
  cfg.domains.domains.push_back(
      resil::OutageDomain{0, 0, 0, 0, /*start=*/1, /*end=*/3});
  std::uint64_t ref_state = 0;
  std::uint64_t ref_monitor = 0;
  for (const int threads : {1, 2, 4}) {
    MetroWorld world(cfg);
    sim::ThreadPool pool(threads);
    for (int e = 0; e < 5; ++e) (void)world.run_epoch(pool);
    if (threads == 1) {
      ref_state = world.state_fingerprint();
      ref_monitor = world.monitor()->fingerprint();
      continue;
    }
    EXPECT_EQ(world.state_fingerprint(), ref_state) << "threads=" << threads;
    EXPECT_EQ(world.monitor()->fingerprint(), ref_monitor)
        << "threads=" << threads;
  }
}

// --- Config validation ---------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

MetroConfig tiny_config() {
  MetroConfig cfg = small_config();
  cfg.tags = 100;
  return cfg;
}

/// The world must refuse `config` with an error naming `field`.
void ExpectRejected(const MetroConfig& config, const std::string& field) {
  try {
    const MetroWorld world(config);
    ADD_FAILURE() << "accepted an invalid " << field;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
        << error.what();
  }
}

TEST(MetroValidate, AcceptsDefaultsEmptyIntervalsAndOutOfGridCorners) {
  EXPECT_NO_THROW(MetroConfig{}.validate());
  MetroConfig cfg = tiny_config();
  cfg.domains.domains.push_back(resil::OutageDomain{0, 0, 0, 0, 0, 0});
  cfg.domains.domains.push_back(resil::OutageDomain{-5, -5, 10, 10, 0, 1});
  EXPECT_NO_THROW(MetroWorld{cfg});
}

TEST(MetroValidate, RejectsANonPositiveArea) {
  MetroConfig cfg = tiny_config();
  cfg.width_m = 0.0;
  ExpectRejected(cfg, "MetroConfig::width_m");
  cfg = tiny_config();
  cfg.height_m = -1.0;
  ExpectRejected(cfg, "MetroConfig::height_m");
}

TEST(MetroValidate, RejectsAnEmptyReaderGrid) {
  MetroConfig cfg = tiny_config();
  cfg.readers_x = 0;
  ExpectRejected(cfg, "MetroConfig::readers_x");
  cfg = tiny_config();
  cfg.readers_y = -2;
  ExpectRejected(cfg, "MetroConfig::readers_y");
}

TEST(MetroValidate, RejectsAReaderGridBeyondAnInt) {
  MetroConfig cfg = tiny_config();
  cfg.readers_x = 50000;
  cfg.readers_y = 50000;
  ExpectRejected(cfg, "MetroConfig::readers_x");
  cfg.readers_x = 65536;
  cfg.readers_y = 32768;  // Exactly 2^31.
  ExpectRejected(cfg, "MetroConfig::readers_x");
  cfg.readers_y = 32767;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(MetroValidate, RejectsAnIndexGridBeyondAnInt) {
  MetroConfig cfg = tiny_config();
  cfg.width_m = 1e10;
  cfg.index_cell_m = 1.0;
  ExpectRejected(cfg, "MetroConfig::index_cell_m");
  cfg = tiny_config();
  cfg.height_m = 0x1.0p31;
  cfg.index_cell_m = 1.0;
  ExpectRejected(cfg, "MetroConfig::index_cell_m");
  cfg.height_m = 0x1.0p31 - 1.0;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(MetroValidate, RejectsTagCountsBeyondThirtyTwoBits) {
  MetroConfig cfg = tiny_config();
  cfg.tags = static_cast<std::size_t>(-5);  // What --tags -5 arrives as.
  ExpectRejected(cfg, "MetroConfig::tags");
  cfg.tags = std::size_t{1} << 32;
  ExpectRejected(cfg, "MetroConfig::tags");
  cfg.tags = (std::size_t{1} << 32) - 1;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(MetroValidate, RejectsANonPositiveIndexCell) {
  MetroConfig cfg = tiny_config();
  cfg.index_cell_m = 0.0;
  ExpectRejected(cfg, "MetroConfig::index_cell_m");
}

TEST(MetroValidate, RejectsANonPositiveEpochDuration) {
  // An infinite epoch stamped first reads at 0 * inf = NaN.
  for (const double duration : {0.0, kInf}) {
    MetroConfig cfg = tiny_config();
    cfg.epoch_duration_s = duration;
    ExpectRejected(cfg, "MetroConfig::epoch_duration_s");
  }
}

TEST(MetroValidate, RejectsNegativePolls) {
  MetroConfig cfg = tiny_config();
  cfg.polls_per_reader = -1;
  ExpectRejected(cfg, "MetroConfig::polls_per_reader");
}

TEST(MetroValidate, RejectsANegativePayload) {
  MetroConfig cfg = tiny_config();
  cfg.payload_bits = -96.0;
  ExpectRejected(cfg, "MetroConfig::payload_bits");
}

TEST(MetroValidate, RejectsANegativeInterferenceRadius) {
  for (const double radius : {-8.0, kInf}) {
    MetroConfig cfg = tiny_config();
    cfg.interference_radius_m = radius;
    ExpectRejected(cfg, "MetroConfig::interference_radius_m");
  }
}

TEST(MetroValidate, RejectsNegativeEnergyFields) {
  const std::pair<double MetroConfig::*, const char*> fields[] = {
      {&MetroConfig::initial_energy_j, "MetroConfig::initial_energy_j"},
      {&MetroConfig::harvest_j_per_epoch, "MetroConfig::harvest_j_per_epoch"},
      {&MetroConfig::respond_cost_j, "MetroConfig::respond_cost_j"},
      {&MetroConfig::energy_cap_j, "MetroConfig::energy_cap_j"}};
  for (const auto& [field, name] : fields) {
    MetroConfig cfg = tiny_config();
    cfg.*field = -1e-6;
    ExpectRejected(cfg, name);
  }
}

TEST(MetroValidate, RejectsANegativeSpeed) {
  for (const double speed : {-1.5, kInf}) {
    MetroConfig cfg = tiny_config();
    cfg.speed_mps = speed;
    ExpectRejected(cfg, "MetroConfig::speed_mps");
  }
}

TEST(MetroValidate, RejectsAPollSuccessProbabilityOutsideTheUnitInterval) {
  for (const double p : {-0.1, 1.1, std::nan("")}) {
    MetroConfig cfg = tiny_config();
    cfg.poll_success_prob = p;
    ExpectRejected(cfg, "MetroConfig::poll_success_prob");
  }
}

TEST(MetroValidate, RejectsAMoveFractionOutsideTheUnitInterval) {
  for (const double f : {-0.05, 1.5}) {
    MetroConfig cfg = tiny_config();
    cfg.move_fraction = f;
    ExpectRejected(cfg, "MetroConfig::move_fraction");
  }
}

TEST(MetroValidate, RejectsAnOutOfRangeHealthConfig) {
  MetroConfig cfg = tiny_config();
  cfg.health.probe_interval_epochs = 0;
  ExpectRejected(cfg, "HealthConfig::probe_interval_epochs");
  cfg = tiny_config();
  cfg.health.ewma_alpha = 0.0;
  ExpectRejected(cfg, "HealthConfig::ewma_alpha");
}

TEST(MetroValidate, RejectsAnInvertedOutageDomain) {
  MetroConfig cfg = tiny_config();
  cfg.domains.domains.push_back(resil::OutageDomain{2, 0, 1, 0, 0, 1});
  ExpectRejected(cfg, "OutageDomain::x0");
  cfg = tiny_config();
  cfg.domains.domains.push_back(resil::OutageDomain{0, 2, 0, 1, 0, 1});
  ExpectRejected(cfg, "OutageDomain::y0");
  cfg = tiny_config();
  cfg.domains.domains.push_back(resil::OutageDomain{0, 0, 0, 0, 5, 4});
  ExpectRejected(cfg, "OutageDomain::start_epoch");
}

}  // namespace
}  // namespace mmtag::scale
