// Forwarding plane (src/mesh/forwarding): delivery along the deterministic
// primary path, per-hop airtime with the 16 header bytes, fast-reroute to
// precomputed alternates when the primary next hop dies, the no-failover
// baseline, TTL expiry and its bound, and a send with every frame buffer
// in flight as a counted graceful drop (mesh.dropped.pool).
#include "src/mesh/forwarding.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/mac/event_queue.hpp"
#include "src/mesh/topology.hpp"
#include "src/obs/gate.hpp"
#include "src/obs/metrics.hpp"

namespace mmtag::mesh {
namespace {

/// Square of side 8 m, gateway 0, edges 0-1, 0-2, 1-3, 2-3 only. From
/// reader 3 the two gateway paths tie, so the lexicographic tie-break
/// makes 3-1-0 the primary and 3-2-0 the first alternate.
MeshTopology square_topology() {
  const std::vector<core::Pose> poses = {core::Pose{{0.0, 0.0}, 0.0},
                                         core::Pose{{8.0, 0.0}, 0.0},
                                         core::Pose{{0.0, 8.0}, 0.0},
                                         core::Pose{{8.0, 8.0}, 0.0}};
  TopologyConfig config;
  config.link.max_range_m = 9.0;
  return MeshTopology(poses, config);
}

TEST(MeshForwarding, DeliversAlongTheLexicographicPrimary) {
  const MeshTopology topo = square_topology();
  MeshNetwork net(&topo, ForwardingConfig{}, 8);
  const RouteTable& table = net.table(3);
  ASSERT_FALSE(table.routes(table.best_gateway()).empty());
  EXPECT_EQ(table.routes(table.best_gateway()).front().hops,
            (std::vector<int>{3, 1, 0}));

  mac::EventQueue queue;
  net.begin_epoch({});
  EXPECT_TRUE(net.send(queue, 3, 128, 0.0));
  queue.run();
  EXPECT_EQ(net.buffered_frames(), 0u);
  const MeshStats stats = net.finish(1.0);
  EXPECT_EQ(stats.offered, 1u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.delivered_local, 0u);
  EXPECT_EQ(stats.hops, 2u);
  EXPECT_EQ(stats.reroutes, 0u);
  EXPECT_EQ(stats.payload_bytes_delivered, 128u);
  EXPECT_GT(stats.latency_p50_s, 0.0);
  EXPECT_DOUBLE_EQ(stats.stretch_mean, 1.0);  // Primary IS the oracle path.
  EXPECT_DOUBLE_EQ(stats.delivery_ratio(), 1.0);
  EXPECT_GT(stats.link_util_max, 0.0);
}

TEST(MeshForwarding, GatewaySourceEgressesLocally) {
  const MeshTopology topo = square_topology();
  MeshNetwork net(&topo, ForwardingConfig{}, 2);
  mac::EventQueue queue;
  net.begin_epoch({});
  EXPECT_TRUE(net.send(queue, 0, 99, 0.0));
  EXPECT_EQ(net.buffered_frames(), 0u);  // No mesh frame was needed.
  const MeshStats stats = net.finish(1.0);
  EXPECT_EQ(stats.delivered_local, 1u);
  EXPECT_EQ(stats.payload_bytes_delivered, 99u);
}

TEST(MeshForwarding, DeadSourceIsACountedDrop) {
  const MeshTopology topo = square_topology();
  MeshNetwork net(&topo, ForwardingConfig{}, 2);
  mac::EventQueue queue;
  net.begin_epoch({1, 1, 1, 0});
  EXPECT_FALSE(net.send(queue, 3, 128, 0.0));
  const MeshStats stats = net.finish(1.0);
  EXPECT_EQ(stats.offered, 0u);
  EXPECT_EQ(stats.dropped_no_route, 1u);
}

TEST(MeshForwarding, FailoverShiftsToTheFirstLiveAlternate) {
  const MeshTopology topo = square_topology();
  MeshNetwork net(&topo, ForwardingConfig{}, 8);
  mac::EventQueue queue;
  // Reader 1 (the primary transit) dies; tables are stale until
  // reconverge(), so delivery relies on the precomputed alternate.
  net.begin_epoch({1, 0, 1, 1});
  EXPECT_TRUE(net.send(queue, 3, 128, 0.0));
  queue.run();
  const MeshStats stats = net.finish(1.0);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.reroutes, 1u);
  EXPECT_EQ(stats.rerouted_delivered, 1u);
  EXPECT_EQ(stats.hops, 2u);  // The alternate is also two hops.
  EXPECT_DOUBLE_EQ(stats.delivery_ratio(), 1.0);
}

TEST(MeshForwarding, NoFailoverBaselineDropsWhereThePrimaryDies) {
  const MeshTopology topo = square_topology();
  ForwardingConfig config;
  config.failover = false;
  MeshNetwork net(&topo, config, 8);
  mac::EventQueue queue;
  net.begin_epoch({1, 0, 1, 1});
  EXPECT_TRUE(net.send(queue, 3, 128, 0.0));
  queue.run();
  const MeshStats stats = net.finish(1.0);
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(stats.dropped_no_route, 1u);
  EXPECT_EQ(stats.reroutes, 0u);
  EXPECT_DOUBLE_EQ(stats.delivery_ratio(), 0.0);
}

TEST(MeshForwarding, ReconvergeMakesTheDetourThePrimary) {
  const MeshTopology topo = square_topology();
  MeshNetwork net(&topo, ForwardingConfig{}, 8);
  mac::EventQueue queue;
  net.begin_epoch({1, 0, 1, 1});
  EXPECT_TRUE(net.send(queue, 3, 128, 0.0));
  queue.run();
  net.reconverge();  // Link-state flood catches up; tables rebuilt.
  const RouteTable& table = net.table(3);
  ASSERT_FALSE(table.routes(table.best_gateway()).empty());
  EXPECT_EQ(table.routes(table.best_gateway()).front().hops,
            (std::vector<int>{3, 2, 0}));

  net.begin_epoch({1, 0, 1, 1});
  EXPECT_TRUE(net.send(queue, 3, 128, queue.now()));
  queue.run();
  const MeshStats stats = net.finish(1.0);
  EXPECT_EQ(stats.delivered, 2u);
  EXPECT_EQ(stats.reroutes, 1u);  // Only the pre-convergence frame shifted.
  EXPECT_EQ(stats.rerouted_delivered, 1u);
}

TEST(MeshForwarding, TtlExpiryIsACountedDrop) {
  const MeshTopology topo = square_topology();
  ForwardingConfig config;
  config.ttl = 1;  // One link crossing allowed; the path needs two.
  MeshNetwork net(&topo, config, 8);
  mac::EventQueue queue;
  net.begin_epoch({});
  EXPECT_TRUE(net.send(queue, 3, 128, 0.0));
  queue.run();
  const MeshStats stats = net.finish(1.0);
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(stats.dropped_ttl, 1u);
  EXPECT_EQ(net.buffered_frames(), 0u);  // The frame buffer was freed.
}

TEST(MeshForwarding, PoolExhaustionIsACountedGracefulDrop) {
  const MeshTopology topo = square_topology();
  MeshNetwork net(&topo, ForwardingConfig{}, 1);  // The second send drops.
  mac::EventQueue queue;
  net.begin_epoch({});
  const std::uint64_t dropped_before =
      obs::Registry::instance().counter("mesh.dropped.pool").value();
  EXPECT_TRUE(net.send(queue, 3, 128, 0.0));
  EXPECT_FALSE(net.send(queue, 3, 128, 0.0));  // Graceful, counted refusal.
  if constexpr (obs::kObsEnabled) {
    EXPECT_EQ(obs::Registry::instance().counter("mesh.dropped.pool").value(),
              dropped_before + 1);
  }
  queue.run();
  EXPECT_EQ(net.buffered_frames(), 0u);  // The delivered frame freed its buffer.
  const MeshStats stats = net.finish(1.0);
  EXPECT_EQ(stats.offered, 1u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.dropped_pool, 1u);
  // The drop counts against delivery: 1 of 2 made it out.
  EXPECT_DOUBLE_EQ(stats.delivery_ratio(), 0.5);
}

TEST(MeshForwarding, OneHopAirtimeCarriesTheHeaderBytes) {
  // Readers 1 m apart: one link, reader 1 one hop from gateway 0.
  const std::vector<core::Pose> poses = {core::Pose{{0.0, 0.0}, 0.0},
                                         core::Pose{{1.0, 0.0}, 0.0}};
  const MeshTopology topo(poses, TopologyConfig{});
  const MeshLink* link = topo.find_link(1, 0);
  ASSERT_NE(link, nullptr);
  MeshNetwork net(&topo, ForwardingConfig{}, 1);
  mac::EventQueue queue;
  net.begin_epoch({});
  EXPECT_TRUE(net.send(queue, 1, 200, 0.0));
  queue.run();
  const MeshStats stats = net.finish(1.0);
  ASSERT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.hops, 1u);
  // Serialization of payload + 16 header bytes, plus the 20 us per-hop
  // overhead.
  EXPECT_DOUBLE_EQ(stats.latency_p50_s,
                   (200.0 + 16.0) * 8.0 / link->capacity_bps + 20e-6);
}

TEST(MeshForwarding, TtlBelowOneIsRejected) {
  const MeshTopology topo = square_topology();
  for (const int ttl : {0, -1}) {
    ForwardingConfig config;
    config.ttl = ttl;
    EXPECT_THROW(MeshNetwork(&topo, config, 8), std::invalid_argument)
        << ttl;
  }
}

TEST(MeshForwarding, StatsFingerprintIsBitStable) {
  const auto run_once = [](bool failover) {
    const MeshTopology topo = square_topology();
    ForwardingConfig config;
    config.failover = failover;
    MeshNetwork net(&topo, config, 8);
    mac::EventQueue queue;
    net.begin_epoch({1, 0, 1, 1});
    (void)net.send(queue, 3, 128, 0.0);
    (void)net.send(queue, 2, 128, 1e-4);
    queue.run();
    net.reconverge();
    return fingerprint(net.finish(1.0));
  };
  EXPECT_EQ(run_once(true), run_once(true));
  EXPECT_EQ(run_once(false), run_once(false));
  EXPECT_NE(run_once(true), run_once(false));
}

}  // namespace
}  // namespace mmtag::mesh
