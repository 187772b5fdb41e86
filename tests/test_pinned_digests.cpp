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

#include "src/deploy/fleet.hpp"
#include "src/fault/engine.hpp"
#include "src/mesh/backhaul.hpp"
#include "src/net/packet.hpp"
#include "src/net/sr_arq.hpp"
#include "src/net/traffic.hpp"
#include "src/obs/stats.hpp"
#include "src/phy/rate_table.hpp"
#include "src/resil/domain.hpp"
#include "src/scale/world.hpp"
#include "src/sim/parallel.hpp"
#include "src/sim/rng.hpp"

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
  hasher.mix_u64(static_cast<std::uint64_t>(result.pool_stalls));
  hasher.mix_double(result.elapsed_s);
  for (const double latency_s : result.delivery_latency_s) {
    hasher.mix_double(latency_s);
  }
  return hasher.digest();
}

TEST(PinnedDigests, LossySrArqSession) {
  // Window 16 over an 8-slot pool (stalls), 5% block-ACK loss, a 4-attempt
  // budget (drops), a channel that sags mid-transfer, and an adapter that
  // retimes every acknowledged round.
  net::SrArqConfig config;
  config.window = 16;
  config.ack_loss_probability = 0.05;
  config.max_attempts_per_packet = 4;
  const net::SrArqTiming timing;
  net::SrArqSession session(config, timing);
  net::PacketPool pool(8, config.payload_bytes, net::kSrHeaderBytes);
  std::mt19937_64 rng = sim::make_rng(2024);
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
  const net::SrArqResult result =
      session.run(400, channel, rng, &pool, adapt);
  EXPECT_GT(result.packets_dropped, 0);
  EXPECT_GT(result.acks_lost, 0);
  EXPECT_GT(result.pool_stalls, 0);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(digest(result), 0x5b6bff244b87c131ull);
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

}  // namespace
}  // namespace mmtag
