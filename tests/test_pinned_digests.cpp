// Pinned digests: the fingerprints the benches print at their default
// configurations, asserted so a refactor that shifts a single draw or a
// single double fails here instead of in a bench log. Each config below
// mirrors the named bench's builder at its default flags (seed 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "src/antenna/codebook.hpp"
#include "src/antenna/mutual_coupling.hpp"
#include "src/channel/geometry.hpp"
#include "src/core/van_atta.hpp"
#include "src/deploy/coordinator.hpp"
#include "src/deploy/fleet.hpp"
#include "src/deploy/layout.hpp"
#include "src/fault/engine.hpp"
#include "src/impair/chain.hpp"
#include "src/mac/inventory.hpp"
#include "src/mac/mimo_reader.hpp"
#include "src/mesh/backhaul.hpp"
#include "src/net/sr_arq.hpp"
#include "src/net/traffic.hpp"
#include "src/obs/stats.hpp"
#include "src/phy/rate_table.hpp"
#include "src/phys/units.hpp"
#include "src/reader/reader.hpp"
#include "src/resil/domain.hpp"
#include "src/phy/waveform.hpp"
#include "src/scale/world.hpp"
#include "src/sim/link_sim.hpp"
#include "src/sim/parallel.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/sweep.hpp"

namespace mmtag {
namespace {

// bench_d1_fleet's fleet_config.
deploy::FleetConfig d1_config(int readers, int tags, double width_m,
                              double height_m, int epochs) {
  deploy::FleetConfig config;
  config.layout.width_m = width_m;
  config.layout.height_m = height_m;
  config.layout.readers = readers;
  config.layout.tags = tags;
  config.layout.seed = 1;
  config.epochs = epochs;
  config.epoch_duration_s = 0.4;
  config.seed = 1;
  return config;
}

// bench_d1_fleet's headline scenario at --readers/--tags/--epochs.
deploy::FleetConfig d1_headline(int readers, int tags, int epochs) {
  const double side = 4.0 * std::max(1.0, std::sqrt(readers));
  return d1_config(readers, tags, side, side, epochs);
}

TEST(PinnedDigests, D1ThreadScalingDefault) {
  const deploy::FleetResult result =
      deploy::FleetSimulator(d1_headline(16, 2000, 3)).run();
  EXPECT_EQ(deploy::fingerprint(result.stats), 0x9b648cf3de1057f4ull);
}

TEST(PinnedDigests, D1CachedAndUncachedDefault) {
  deploy::FleetConfig cached = d1_config(4, 400, 8.0, 8.0, 2);
  cached.epoch_duration_s = 0.05;
  cached.coordination.policy = deploy::CoordinationPolicy::kChannelized;
  deploy::FleetConfig uncached = cached;
  uncached.use_link_cache = false;
  EXPECT_EQ(deploy::fingerprint(deploy::FleetSimulator(cached).run().stats),
            0x6deea61e00021d7cull);
  EXPECT_EQ(deploy::fingerprint(deploy::FleetSimulator(uncached).run().stats),
            0x6deea61e00021d7cull);
}

TEST(PinnedDigests, D1ReducedFleet) {
  // bench_d1_fleet --readers 4 --tags 100 --epochs 4 (the CI smoke size).
  const deploy::FleetResult result =
      deploy::FleetSimulator(d1_headline(4, 100, 4)).run();
  EXPECT_EQ(deploy::fingerprint(result.stats), 0x003da708a3c87b83ull);
}

TEST(PinnedDigests, D2ChaosDefault) {
  // bench_d2_chaos chaos_determinism: chaos(0.5) drives the ReaderCell
  // timeout, backoff and quarantine path.
  deploy::FleetConfig config = d1_headline(8, 600, 4);
  config.faults = fault::FaultSchedule::chaos(0.5);
  const deploy::FleetResult result = deploy::FleetSimulator(config).run();
  EXPECT_GT(result.fault.quarantines, 0);
  EXPECT_EQ(deploy::fingerprint(result.stats), 0x1a5e2e281480e725ull);
  EXPECT_EQ(fault::fingerprint(result.fault), 0xa24610cf85949ddaull);
}

TEST(PinnedDigests, FleetIdleRetryAndTruncatedScan) {
  // A reduced fleet that reaches the ReaderCell exits no bench default
  // does. Every tag sits in a blockage burst (90% of its polls go
  // unanswered), so a cell idles until the earliest retry (36 times) or
  // stops with every tag backing off past its budget or quarantined (14);
  // partial reader outages shrink some budgets below the scan, which stops
  // mid-sector (3 times) and resumes at the cursor in a later epoch.
  deploy::FleetConfig config = d1_headline(4, 24, 6);
  config.epoch_duration_s = 0.02;
  config.faults.blockage.enter_rate_hz = 1e6;
  config.faults.blockage.mean_burst_s = 1.0;
  config.faults.blockage.block_probability = 0.9;
  config.faults.outages.rate_hz = 30.0;
  config.faults.outages.mean_duration_s = 0.01;
  for (const int threads : {1, 4}) {
    config.threads = threads;
    const deploy::FleetResult result = deploy::FleetSimulator(config).run();
    EXPECT_EQ(result.fault.quarantines, 48);
    EXPECT_EQ(deploy::fingerprint(result.stats), 0x7383ba9cc7a7a2b5ull);
    EXPECT_EQ(fault::fingerprint(result.fault), 0x8ac35c889e3d9508ull);
  }
}

// bench_n1_traffic's traffic_config.
net::TrafficConfig n1_config() {
  net::TrafficConfig config;
  config.layout.width_m = 16.0;
  config.layout.height_m = 10.0;
  config.layout.readers = 4;
  config.layout.tags = 200;
  config.layout.seed = 1;
  config.flows = 1000;
  config.packets_per_flow = 64;
  config.seed = 1;
  return config;
}

TEST(PinnedDigests, N1TrafficDefault) {
  net::TrafficConfig config = n1_config();
  config.faults = fault::FaultSchedule::chaos(0.5);
  const net::TrafficReport report = net::TrafficEngine(config).run();
  EXPECT_EQ(net::fingerprint(report), 0x66a211dee1d8a5d3ull);
}

TEST(PinnedDigests, N1SelectiveRepeatVsStopAndWaitGoodput) {
  // bench_n1_traffic sr_vs_stop_and_wait: ~10% outages plus one scripted
  // incident per reader; the bench prints 84.93 vs 59.57 Mbps.
  net::TrafficConfig config = n1_config();
  config.faults.outages.rate_hz = 0.25;
  config.faults.outages.mean_duration_s = 0.4;
  for (int r = 0; r < config.layout.readers; ++r) {
    config.faults.outages.scripted.push_back(
        fault::ScriptedOutage{r, 0.0005 * r, 0.001});
  }
  config.arq.max_attempts_per_packet = 1 << 20;
  net::TrafficConfig sw = config;
  sw.mode = net::ArqMode::kStopAndWait;
  const net::TrafficReport sr_report = net::TrafficEngine(config).run();
  const net::TrafficReport sw_report = net::TrafficEngine(sw).run();
  EXPECT_NEAR(sr_report.goodput_total_bps / 1e6, 84.93, 0.005);
  EXPECT_NEAR(sw_report.goodput_total_bps / 1e6, 59.57, 0.005);
}

std::uint64_t digest(const net::SrArqResult& result) {
  obs::Fnv1a hasher;
  hasher.mix_u64(static_cast<std::uint64_t>(result.packets_offered));
  hasher.mix_u64(static_cast<std::uint64_t>(result.packets_delivered));
  hasher.mix_u64(static_cast<std::uint64_t>(result.packets_dropped));
  hasher.mix_u64(static_cast<std::uint64_t>(result.transmissions));
  hasher.mix_u64(static_cast<std::uint64_t>(result.acks_received));
  hasher.mix_u64(static_cast<std::uint64_t>(result.acks_lost));
  hasher.mix_u64(static_cast<std::uint64_t>(result.rounds));
  hasher.mix_u64(static_cast<std::uint64_t>(result.duplicate_receives));
  // SR-ARQ's packet-pool stall count was mixed here. The traffic engine's
  // pools never stalled, so a literal 0 keeps every flow's digest.
  hasher.mix_u64(0);
  hasher.mix_double(result.elapsed_s);
  for (const double latency_s : result.delivery_latency_s) {
    hasher.mix_double(latency_s);
  }
  return hasher.digest();
}

TEST(PinnedDigests, LossySrArqSession) {
  // Window 16, 5% block-ACK loss, a 4-attempt budget (drops), a channel
  // that sags mid-transfer, and an adapter that retimes every
  // acknowledged round.
  net::SrArqConfig config;
  config.window = 16;
  config.ack_loss_probability = 0.05;
  config.max_attempts_per_packet = 4;
  const net::SrArqTiming timing;
  net::SrArqSession session(config, timing);
  sim::Rng rng = sim::make_rng(2024);
  const net::ChannelFn channel = [](double now_s) {
    return now_s < 1e-3 ? 0.8 : 0.5;
  };
  const net::AdaptFn adapt = [&timing](const net::SrRoundFeedback& feedback) {
    net::SrArqTiming next = timing;
    if (feedback.round_delivered < feedback.round_transmitted) {
      next.packet_time_s *= 1.5;
    }
    return next;
  };
  const net::SrArqResult result = session.run(400, channel, rng, adapt);
  EXPECT_GT(result.packets_dropped, 0);
  EXPECT_GT(result.acks_lost, 0);
  EXPECT_EQ(digest(result), 0x06e42646c97fcda8ull);
}

TEST(PinnedDigests, N1PerFlowArqResults) {
  // net::fingerprint covers the aggregates; this pins every flow's own
  // SR-ARQ result, its delivery latencies in order included.
  net::TrafficConfig config = n1_config();
  config.faults = fault::FaultSchedule::chaos(0.5);
  const net::TrafficReport report = net::TrafficEngine(config).run();
  obs::Fnv1a hasher;
  for (const net::FlowResult& flow : report.per_flow) {
    hasher.mix_u64(digest(flow.arq));
  }
  EXPECT_EQ(hasher.digest(), 0x5d80f42afd1a1a81ull);
}

// bench_m1_mesh's backhaul_config: ~10% reader outages plus a scripted
// incident on the gateway's two nearest transit readers for epochs 1-2.
mesh::BackhaulConfig m1_config(int readers, int tags) {
  mesh::BackhaulConfig config;
  const double side = 4.0 * std::max(1.0, std::sqrt(readers));
  config.fleet.layout.width_m = side;
  config.fleet.layout.height_m = side;
  config.fleet.layout.readers = readers;
  config.fleet.layout.tags = tags;
  config.fleet.layout.seed = 1;
  config.fleet.epochs = 3;
  config.fleet.epoch_duration_s = 0.4;
  config.fleet.seed = 1;
  fault::ReaderOutageModel& outages = config.fleet.faults.outages;
  outages.rate_hz = 0.25;
  outages.mean_duration_s = 0.4;
  const double epoch_s = config.fleet.epoch_duration_s;
  const int cols =
      static_cast<int>(std::ceil(std::sqrt(static_cast<double>(readers))));
  for (const int transit : {1, cols}) {
    outages.scripted.push_back(
        fault::ScriptedOutage{transit, epoch_s, 2.0 * epoch_s + 0.01});
  }
  config.topology.gateways = {0, readers - 1};
  config.topology.link.max_range_m = 6.0;
  return config;
}

TEST(PinnedDigests, M1MeshCiSize) {
  // bench_m1_mesh --readers 16 --tags 200 --epochs 3 (the CI smoke size).
  const mesh::BackhaulReport report =
      mesh::BackhaulSimulator(m1_config(16, 200)).run();
  EXPECT_EQ(mesh::fingerprint(report), 0x8ee95c66ddb2c12bull);
}

TEST(PinnedDigests, M1MeshDefault) {
  const mesh::BackhaulReport report =
      mesh::BackhaulSimulator(m1_config(64, 1024)).run();
  EXPECT_EQ(mesh::fingerprint(report), 0x8438aeddf669da73ull);
}

// bench_r1_resil's resil_metro_config at --grid 4 --metro-tags 3000.
scale::MetroConfig r1_config() {
  scale::MetroConfig config;
  const scale::BatchLinkModel model = scale::BatchLinkModel::from_budget(
      config.budget, phy::RateTable::mmtag_standard());
  const double spacing = 0.6 * std::sqrt(model.tier_r2_m2.front());
  config.readers_x = 4;
  config.readers_y = 4;
  config.width_m = spacing * 4;
  config.height_m = spacing * 4;
  config.index_cell_m = std::max(0.5, spacing / 4.0);
  config.tags = 3000;
  config.polls_per_reader = 512;
  config.health.probe_interval_epochs = 4;
  config.seed = 1;
  return config;
}

/// State and monitor digests (0 without a control plane) after R1's 12
/// metro epochs.
std::pair<std::uint64_t, std::uint64_t> run_r1(
    const scale::MetroConfig& config) {
  scale::MetroWorld world(config);
  sim::ThreadPool pool(2);
  for (int e = 0; e < 12; ++e) (void)world.run_epoch(pool);
  return {world.state_fingerprint(),
          world.monitor() != nullptr ? world.monitor()->fingerprint() : 0};
}

TEST(PinnedDigests, R1ControlPlaneDefault) {
  // The 2x2 incident over epochs [2, 10) with the monitor steering.
  scale::MetroConfig config = r1_config();
  config.domains.domains.push_back(resil::OutageDomain{0, 0, 1, 1, 2, 10});
  config.control_plane = true;
  const auto [state, monitor] = run_r1(config);
  EXPECT_EQ(state, 0x4ec95e25322f0dfcull);
  EXPECT_EQ(monitor, 0xe9ee56837482ec49ull);
}

TEST(PinnedDigests, R1LegacyAndDormantDefault) {
  scale::MetroConfig dormant = r1_config();
  dormant.domains.domains.push_back(resil::OutageDomain{0, 0, 0, 0, 0, 0});
  EXPECT_EQ(run_r1(r1_config()).first, 0xbf747d083333ccdbull);
  EXPECT_EQ(run_r1(dormant).first, 0xbf747d083333ccdbull);
}

// A dense reader grid: 4x4 readers 10 m apart, so the 8 m contention
// radius reaches across reader boundaries and the poll loop's foreign-tag
// branch runs (every bench geometry reads 0 interference pairs).
TEST(PinnedDigests, MetroDenseReaderInterference) {
  scale::MetroConfig config;
  config.width_m = 40.0;
  config.height_m = 40.0;
  config.readers_x = 4;
  config.readers_y = 4;
  config.tags = 20000;
  config.index_cell_m = 2.5;
  config.move_fraction = 0.2;
  config.seed = 7;
  scale::MetroConfig linear = config;
  linear.use_index = false;
  const std::pair<const scale::MetroConfig*, int> runs[] = {
      {&config, 1}, {&config, 4}, {&linear, 1}};
  for (const auto& [run_config, threads] : runs) {
    SCOPED_TRACE(testing::Message() << "threads " << threads << " use_index "
                                    << run_config->use_index);
    scale::MetroWorld world(*run_config);
    sim::ThreadPool pool(threads);
    for (int e = 0; e < 6; ++e) (void)world.run_epoch(pool);
    const scale::MetroStats stats = world.stats();
    EXPECT_EQ(stats.interference_pairs, 89504u);
    EXPECT_EQ(stats.fingerprint(), 0xb52171d73e99b960ull);
    EXPECT_EQ(world.state_fingerprint(), 0x110fcf825533a0d7ull);
  }
}

/// Runs `config` for `epochs` epochs at 1 and 4 threads and with the
/// linear query path, checks the state and stats digests of each, and
/// returns the indexed single-thread run's summed epoch stats.
scale::MetroEpochStats expect_metro_digests(const scale::MetroConfig& config,
                                            int epochs, std::uint64_t state,
                                            std::uint64_t stats) {
  scale::MetroConfig linear = config;
  linear.use_index = false;
  const std::pair<const scale::MetroConfig*, int> runs[] = {
      {&config, 1}, {&config, 4}, {&linear, 1}};
  scale::MetroEpochStats sum;
  for (const auto& [run_config, threads] : runs) {
    SCOPED_TRACE(testing::Message() << "threads " << threads << " use_index "
                                    << run_config->use_index);
    scale::MetroWorld world(*run_config);
    sim::ThreadPool pool(threads);
    for (int e = 0; e < epochs; ++e) {
      const scale::MetroEpochStats epoch = world.run_epoch(pool);
      if (run_config != &config || threads != 1) continue;
      sum.polls += epoch.polls;
      sum.moved += epoch.moved;
      sum.tags_adopted += epoch.tags_adopted;
    }
    EXPECT_EQ(world.stats().fingerprint(), stats);
    EXPECT_EQ(world.state_fingerprint(), state);
  }
  return sum;
}

// metro_1m's density (25 tags/m^2), reader grid and mover share on a
// tenth of its tags: every reader detects about 2,100 tags an epoch and
// polls 256 of them, so the poll budget binds as it does at 1M tags.
TEST(PinnedDigests, MetroPollBudgetBinds) {
  scale::MetroConfig config;
  config.width_m = 63.25;
  config.height_m = 63.25;
  config.readers_x = 4;
  config.readers_y = 4;
  config.tags = 100000;
  config.move_fraction = 0.05;
  config.seed = 24;
  const scale::MetroEpochStats sum =
      expect_metro_digests(config, 20, 0xd20b85c3a9265797ull,
                           0x24db870d2516c317ull);
  EXPECT_EQ(sum.polls, 20u * 16u * 256u);
}

// Edge cases of the poll and mobility paths on a 12 x 12 m world with
// readers 3 m apart: 3 polls per reader against far more eligible tags; a
// respond cost above both the harvest and the initial charge, so tags
// fall out of eligibility after answering and climb back; the 2 x 2
// centre readers down over epochs [2, 9) with the control plane
// re-homing their tags; every tag moving every epoch, then 30% of them.
TEST(PinnedDigests, MetroEdgeWorld) {
  scale::MetroConfig config;
  config.width_m = 12.0;
  config.height_m = 12.0;
  config.readers_x = 4;
  config.readers_y = 4;
  config.tags = 3000;
  config.index_cell_m = 1.0;
  config.polls_per_reader = 3;
  config.initial_energy_j = 1e-6;
  config.harvest_j_per_epoch = 2e-6;
  config.respond_cost_j = 3.5e-6;
  config.speed_mps = 2.0;
  config.control_plane = true;
  config.domains.domains.push_back(resil::OutageDomain{1, 1, 2, 2, 2, 9});
  config.seed = 24;
  const std::pair<double, std::pair<std::uint64_t, std::uint64_t>> runs[] = {
      {1.0, {0xa45650b2137b9056ull, 0x477c5d74410b537bull}},
      {0.3, {0xbcf732b0b63d88dbull, 0x44136cac089ddb7bull}}};
  for (const auto& [fraction, digests] : runs) {
    SCOPED_TRACE(testing::Message() << "move_fraction " << fraction);
    config.move_fraction = fraction;
    const scale::MetroEpochStats sum =
        expect_metro_digests(config, 12, digests.first, digests.second);
    EXPECT_GT(sum.tags_adopted, 0u);
    EXPECT_LT(sum.polls, 12u * 16u * 3u);  // The outage cost polls.
    if (fraction == 1.0) {
      EXPECT_EQ(sum.moved, 12u * 3000u);
    }
  }
}

// The inventory MACs: E2 and A3 print their times rounded to a
// microsecond, so these pin every beam's dwell and the draws it took.

// bench_e2_mac's and bench_a3_mac_overhead's tag arc: `count` tags facing
// the reader at the origin, spread over +-55 degrees.
std::vector<core::MmTag> arc_of_tags(int count, double radius_m) {
  std::vector<core::MmTag> tags;
  for (int i = 0; i < count; ++i) {
    const double bearing =
        phys::deg_to_rad(-55.0 + 110.0 * i / std::max(1, count - 1));
    const channel::Vec2 pos{radius_m * std::cos(bearing),
                            radius_m * std::sin(bearing)};
    tags.push_back(core::MmTag::prototype_at(
        core::Pose{pos, channel::bearing_rad(pos, {0.0, 0.0})},
        static_cast<std::uint32_t>(i + 1)));
  }
  return tags;
}

void mix_inventory(obs::Fnv1a& hasher, const mac::InventoryResult& result) {
  hasher.mix_u64(static_cast<std::uint64_t>(result.tags_total));
  hasher.mix_u64(static_cast<std::uint64_t>(result.tags_read));
  hasher.mix_double(result.total_time_s);
  for (const mac::BeamInventory& beam : result.beams) {
    hasher.mix_double(beam.beam.boresight_rad);
    hasher.mix_u64(static_cast<std::uint64_t>(beam.tags_in_beam));
    hasher.mix_double(beam.link_rate_bps);
    hasher.mix_double(beam.dwell_time_s);
    for (const long count :
         {static_cast<long>(beam.aloha.tags_read),
          static_cast<long>(beam.aloha.rounds), beam.aloha.slots_total,
          beam.aloha.slots_success, beam.aloha.slots_collision,
          beam.aloha.slots_empty}) {
      hasher.mix_u64(static_cast<std::uint64_t>(count));
    }
  }
}

TEST(PinnedDigests, E2AndA3Inventories) {
  const phy::RateTable rates = phy::RateTable::mmtag_standard();
  const channel::Environment env;
  const std::vector<antenna::Beam> codebook = antenna::uniform_codebook(
      phys::deg_to_rad(-60.0), phys::deg_to_rad(60.0), 17.0);
  const reader::MmWaveReader reader =
      reader::MmWaveReader::prototype_at(core::Pose{{0.0, 0.0}, 0.0});
  obs::Fnv1a hasher;
  // E2's population sweep: the SDM pass and the 4-chain MIMO pass, each
  // followed by its engine's next draw.
  const mac::InventoryConfig config;
  for (const int population : {1, 2, 4, 8, 16, 32, 64}) {
    const std::vector<core::MmTag> tags =
        arc_of_tags(population, phys::feet_to_m(4.0));
    auto rng = sim::make_rng(
        sim::derive_seed(1, 1000 + static_cast<std::uint64_t>(population)));
    mix_inventory(hasher, mac::SdmInventory(reader, rates, config)
                              .run(codebook, tags, env, rng));
    hasher.mix_u64(rng());
    auto rng_mimo = sim::make_rng(
        sim::derive_seed(1, 2000 + static_cast<std::uint64_t>(population)));
    const mac::MimoInventoryResult mimo =
        mac::MimoInventory(reader, rates, config, 4)
            .run(codebook, tags, env, rng_mimo);
    for (const mac::InventoryResult& chain : mimo.per_chain) {
      mix_inventory(hasher, chain);
    }
    hasher.mix_u64(static_cast<std::uint64_t>(mimo.tags_read));
    hasher.mix_double(mimo.total_time_s);
    hasher.mix_double(mimo.speedup_vs_single);
    hasher.mix_u64(rng_mimo());
  }
  // A3's Aloha side: 32 tags across the beam-switch overhead sweep.
  const std::vector<core::MmTag> tags = arc_of_tags(32, phys::feet_to_m(4.0));
  for (const double overhead_us :
       {0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0}) {
    auto rng = sim::make_rng(sim::derive_seed(
        1, 8000 + static_cast<std::uint64_t>(overhead_us * 10)));
    mac::InventoryConfig aloha_config;
    aloha_config.beam_switch_overhead_s = overhead_us * 1e-6;
    mix_inventory(hasher, mac::SdmInventory(reader, rates, aloha_config)
                              .run(codebook, tags, env, rng));
    hasher.mix_u64(rng());
  }
  EXPECT_EQ(hasher.digest(), 0xb64d84e1fb5500c4ull);
}

// The tag's signal flow and the link budgets built on it: the fleet
// digests above see a link only through the rate tier it clears, so these
// pin the doubles themselves.

TEST(PinnedDigests, FleetTrafficLinkReports) {
  // perfbench fleet_traffic's admission pass at seed 1: every tag's link
  // from its serving reader, the beam steered at the tag.
  deploy::LayoutConfig config;
  config.width_m = 32.0;
  config.height_m = 20.0;
  config.readers = 16;
  config.tags = 2000;
  config.seed = sim::derive_seed(1, 0x6C61796FULL);  // "layo"
  const deploy::FleetLayout layout = deploy::make_layout(config);
  const phy::RateTable rates = phy::RateTable::mmtag_standard();
  std::vector<reader::MmWaveReader> readers;
  for (const core::Pose& pose : layout.reader_poses) {
    readers.push_back(reader::MmWaveReader::prototype_at(pose));
  }
  const std::vector<int> tag_cell =
      deploy::FleetCoordinator::initial_assignment(layout.tags, readers);
  obs::Fnv1a hasher;
  for (std::size_t t = 0; t < layout.tags.size(); ++t) {
    reader::MmWaveReader reader =
        readers[static_cast<std::size_t>(tag_cell[t])];
    reader.steer_to_world(channel::bearing_rad(
        reader.pose().position, layout.tags[t].pose().position));
    const reader::LinkReport link =
        reader.evaluate_link(layout.tags[t], layout.environment, rates);
    hasher.mix_double(link.received_power_dbm);
    hasher.mix_double(link.modulation_depth_db);
    hasher.mix_double(link.achievable_rate_bps);
    hasher.mix_u64(static_cast<std::uint64_t>(link.path.kind));
    hasher.mix_double(link.path.length_m);
  }
  EXPECT_EQ(hasher.digest(), 0xa63fa638a3b9f0e8ull);
}

TEST(PinnedDigests, VanAttaFieldGrid) {
  // reradiated_field on a 5-degree (in, out) grid over [-100, 100]
  // degrees, past the ground plane on both sides, at the carrier and
  // either side of it: plain, coupled, one stuck switch and all switches
  // on, for element counts from the self-paired single patch to 40.
  obs::Fnv1a hasher;
  for (const int n : {1, 5, 6, 24, 40}) {
    std::vector<core::VanAttaArray> arrays(
        4, core::VanAttaArray::with_elements(n));
    arrays[1].set_mutual_coupling(antenna::CouplingMatrix::typical_patch(n));
    arrays[2].set_switch(n / 2, em::SwitchState::kOn);
    arrays[3].set_all_switches(em::SwitchState::kOn);
    for (const core::VanAttaArray& array : arrays) {
      for (int i = -20; i <= 20; ++i) {
        const double theta_in = phys::deg_to_rad(5.0 * i);
        for (int o = -20; o <= 20; ++o) {
          const double theta_out = phys::deg_to_rad(5.0 * o);
          for (const core::Complex field :
               {array.reradiated_field(theta_in, theta_out),
                array.reradiated_field(theta_in, theta_out, 23.9e9),
                array.reradiated_field(theta_in, theta_out, 24.3e9)}) {
            hasher.mix_double(field.real());
            hasher.mix_double(field.imag());
          }
        }
      }
    }
  }
  EXPECT_EQ(hasher.digest(), 0x0def40ec47afd011ull);
}

// The link path's noise: nothing above draws a Gaussian, and the link
// tests check BER against tolerances, so these pin the samples themselves.

void mix_waveform(obs::Fnv1a& hasher, const phy::Waveform& wave) {
  for (const phy::Complex& x : wave) {
    hasher.mix_double(x.real());
    hasher.mix_double(x.imag());
  }
}

TEST(PinnedDigests, LinkBerFerSweeps) {
  // bench_e4_ber's clean BER sweep and bench_i1_impair's cmos_24ghz FER
  // sweep on the 0-12 dB grid, at a CI-sized budget per point.
  sim::MonteCarloLink::Params clean;
  clean.min_bits = 20'000;
  clean.max_bits = 20'000;
  sim::MonteCarloLink::Params impaired;
  impaired.impairments = impair::ImpairmentConfig::cmos_24ghz();
  const std::vector<double> snrs = sim::linspace(0.0, 12.0, 7);
  sim::ThreadPool pool(2);
  const sim::BerSweepResult ber =
      sim::MonteCarloLink(clean).measure_ber_sweep(snrs, 1, pool);
  const sim::FerSweepResult fer =
      sim::MonteCarloLink(impaired).measure_fer_sweep(snrs, 16, 96, 1, pool);
  obs::Fnv1a hasher;
  for (const sim::BerMeasurement& m : ber.points) {
    hasher.mix_u64(m.bits_sent);
    hasher.mix_u64(m.bit_errors);
  }
  for (const sim::FerMeasurement& m : fer.points) {
    hasher.mix_u64(static_cast<std::uint64_t>(m.frames));
    hasher.mix_u64(static_cast<std::uint64_t>(m.failures));
  }
  EXPECT_EQ(hasher.digest(), 0x32b9c131de08951aull);
}

TEST(PinnedDigests, AddAwgnSamples) {
  // Lengths around a 256-pair batch, drawn in turn from one engine, then
  // the engine's next raw draw: the noise and the stream position both.
  auto rng = sim::make_rng(7);
  obs::Fnv1a hasher;
  for (const std::size_t length : {1u, 255u, 256u, 257u, 8000u}) {
    phy::Waveform wave(length);
    for (std::size_t i = 0; i < length; ++i) {
      wave[i] = phy::Complex(i % 2 == 0 ? 1.0 : 0.0, 0.25);
    }
    phy::add_awgn(wave, 0.5, rng);
    mix_waveform(hasher, wave);
  }
  hasher.mix_u64(rng());
  EXPECT_EQ(hasher.digest(), 0xdabb4069e1f53276ull);
}

TEST(PinnedDigests, CmosImpairedReceive) {
  // The receive-side stages: the phase-noise walk with its white floor,
  // IQ imbalance, and the ADC's I/Q jitter before quantization.
  const impair::ImpairmentChain chain(impair::ImpairmentConfig::cmos_24ghz());
  phy::Waveform wave(4096);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    wave[i] = phy::Complex((i / 8) % 2 == 0 ? 0.9 : 0.1, 0.05);
  }
  chain.apply_rx(wave, 2024);
  obs::Fnv1a hasher;
  mix_waveform(hasher, wave);
  EXPECT_EQ(hasher.digest(), 0x7acb16d1afe7680full);
}

}  // namespace
}  // namespace mmtag
