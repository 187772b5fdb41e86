// Mesh topology graph (src/mesh/topology) and OLSR-style link-state
// dissemination (src/mesh/link_state): deterministic construction from
// reader poses, gateway reachability under outage masks, flood convergence
// bounds, database agreement inside a component, and topology-epoch
// convergence through simultaneous multi-reader loss/restart driven by
// test_fault-style scripted schedules.
#include "src/mesh/link_state.hpp"
#include "src/mesh/topology.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/deploy/layout.hpp"
#include "src/fault/engine.hpp"
#include "src/mesh/routing.hpp"

namespace mmtag::mesh {
namespace {

/// Four readers on a square of side `side_m`; with range between the side
/// and the diagonal only the edge links 0-1, 0-2, 1-3, 2-3 exist.
std::vector<core::Pose> square_poses(double side_m) {
  return {core::Pose{{0.0, 0.0}, 0.0},
          core::Pose{{side_m, 0.0}, 0.0},
          core::Pose{{0.0, side_m}, 0.0},
          core::Pose{{side_m, side_m}, 0.0}};
}

TopologyConfig square_config() {
  TopologyConfig config;
  config.link.max_range_m = 9.0;  // side 8 < 9 < diagonal 11.3.
  return config;
}

TEST(MeshTopology, BuildsTheExpectedEdgesSortedAndSymmetric) {
  const MeshTopology topo(square_poses(8.0), square_config());
  ASSERT_EQ(topo.nodes(), 4u);
  EXPECT_EQ(topo.links().size(), 8u);  // Four undirected edges, directed.
  // Edge links only — no diagonal.
  EXPECT_NE(topo.find_link(0, 1), nullptr);
  EXPECT_NE(topo.find_link(0, 2), nullptr);
  EXPECT_NE(topo.find_link(1, 3), nullptr);
  EXPECT_NE(topo.find_link(2, 3), nullptr);
  EXPECT_EQ(topo.find_link(0, 3), nullptr);
  EXPECT_EQ(topo.find_link(1, 2), nullptr);
  // Adjacency sorted ascending; links (from, to) lexicographic.
  for (int n = 0; n < 4; ++n) {
    const auto& edges = topo.neighbors(n);
    ASSERT_EQ(edges.size(), 2u);
    EXPECT_LT(edges[0].to, edges[1].to);
    for (const MeshLink& link : edges) {
      EXPECT_EQ(link.from, n);
      const MeshLink* mirror = topo.find_link(link.to, link.from);
      ASSERT_NE(mirror, nullptr);
      EXPECT_DOUBLE_EQ(mirror->distance_m, link.distance_m);
      EXPECT_DOUBLE_EQ(mirror->cost, link.cost);
    }
  }
  for (std::size_t i = 1; i < topo.links().size(); ++i) {
    const MeshLink& a = topo.links()[i - 1];
    const MeshLink& b = topo.links()[i];
    EXPECT_TRUE(a.from < b.from || (a.from == b.from && a.to < b.to));
  }
  // Default gateway falls back to reader 0.
  ASSERT_EQ(topo.gateways().size(), 1u);
  EXPECT_TRUE(topo.is_gateway(0));
  EXPECT_TRUE(topo.fully_connected());
}

TEST(MeshTopology, LinkQualityFallsOffWithDistance) {
  // Rectangle: 0-1 spaced 4 m, 0-2 spaced 8 m.
  const std::vector<core::Pose> poses = {core::Pose{{0.0, 0.0}, 0.0},
                                         core::Pose{{4.0, 0.0}, 0.0},
                                         core::Pose{{0.0, 8.0}, 0.0}};
  TopologyConfig config;
  config.link.max_range_m = 10.0;
  const MeshTopology topo(poses, config);
  const MeshLink* near = topo.find_link(0, 1);
  const MeshLink* far = topo.find_link(0, 2);
  ASSERT_NE(near, nullptr);
  ASSERT_NE(far, nullptr);
  EXPECT_GT(near->snr_db, far->snr_db);
  EXPECT_GT(near->capacity_bps, far->capacity_bps);
  EXPECT_LT(near->cost, far->cost);  // Fast links cost less.
  EXPECT_GT(far->snr_db, kMinLinkSnrDb);
}

TEST(MeshTopology, OutOfRangeAndSubMinSnrLinksDoNotForm) {
  TopologyConfig config;
  config.link.max_range_m = 6.0;  // Below the 8 m grid side.
  const MeshTopology topo(square_poses(8.0), config);
  EXPECT_TRUE(topo.links().empty());
  EXPECT_FALSE(topo.fully_connected());
}

TEST(MeshTopology, MatchesDeployLayoutPosesDeterministically) {
  deploy::LayoutConfig layout;
  layout.width_m = 16.0;
  layout.height_m = 16.0;
  layout.readers = 9;
  layout.tags = 0;
  const deploy::FleetLayout a = deploy::make_layout(layout);
  const deploy::FleetLayout b = deploy::make_layout(layout);
  const MeshTopology ta(a.reader_poses, TopologyConfig{});
  const MeshTopology tb(b.reader_poses, TopologyConfig{});
  ASSERT_EQ(ta.links().size(), tb.links().size());
  EXPECT_FALSE(ta.links().empty());
  for (std::size_t i = 0; i < ta.links().size(); ++i) {
    EXPECT_EQ(ta.links()[i].from, tb.links()[i].from);
    EXPECT_EQ(ta.links()[i].to, tb.links()[i].to);
    EXPECT_DOUBLE_EQ(ta.links()[i].cost, tb.links()[i].cost);
  }
}

TEST(MeshTopology, GatewayReachabilityUnderOutageMasks) {
  const MeshTopology topo(square_poses(8.0), square_config());
  // Everyone up: all reachable.
  EXPECT_EQ(topo.gateway_reachable({}),
            (std::vector<std::uint8_t>{1, 1, 1, 1}));
  // Readers 1 and 2 down: 3 is live but partitioned from gateway 0.
  EXPECT_EQ(topo.gateway_reachable({1, 0, 0, 1}),
            (std::vector<std::uint8_t>{1, 0, 0, 0}));
  // One transit survivor restores the path.
  EXPECT_EQ(topo.gateway_reachable({1, 1, 0, 1}),
            (std::vector<std::uint8_t>{1, 1, 0, 1}));
  // Dead gateway: nobody drains.
  EXPECT_EQ(topo.gateway_reachable({0, 1, 1, 1}),
            (std::vector<std::uint8_t>{0, 0, 0, 0}));
}

TEST(LinkState, InitialFloodConvergesWithinDiameterAndAgrees) {
  const MeshTopology topo(square_poses(8.0), square_config());
  LinkStateProtocol protocol(&topo);
  const int rounds = protocol.converge({});
  EXPECT_GE(rounds, 1);
  EXPECT_LE(rounds, 2);  // Square diameter.
  EXPECT_EQ(protocol.epoch(), 1);
  EXPECT_GT(protocol.lsa_transmissions(), 0u);
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      EXPECT_TRUE(protocol.databases_agree(a, b)) << a << " vs " << b;
    }
  }
  // Every node believes the true topology.
  const auto believed = protocol.believed_topology(3);
  ASSERT_EQ(believed.size(), 4u);
  for (int n = 0; n < 4; ++n) {
    ASSERT_EQ(believed[static_cast<std::size_t>(n)].size(),
              topo.neighbors(n).size());
    for (std::size_t i = 0; i < topo.neighbors(n).size(); ++i) {
      EXPECT_EQ(believed[static_cast<std::size_t>(n)][i].to,
                topo.neighbors(n)[i].to);
    }
  }
  // A second converge with nothing changed floods nothing new.
  EXPECT_EQ(protocol.converge({}), 0);
}

TEST(LinkState, PartitionedSurvivorLosesItsGatewayRoute) {
  const MeshTopology topo(square_poses(8.0), square_config());
  LinkStateProtocol protocol(&topo);
  protocol.converge({});
  protocol.converge({1, 0, 0, 1});  // Simultaneous loss of both transits.
  // Node 3's own LSA now advertises no neighbors, so its believed topology
  // has no path to the gateway and its route table must say so.
  const RouteTable table(protocol.believed_topology(3), 3, topo.gateways(),
                         RoutingConfig{});
  EXPECT_EQ(table.best_gateway(), -1);
  // The gateway similarly sees an empty horizon but still drains itself.
  const RouteTable gw(protocol.believed_topology(0), 0, topo.gateways(),
                      RoutingConfig{});
  EXPECT_EQ(gw.best_gateway(), 0);
}

TEST(LinkState, RestartComesBackAmnesiacAndRelearns) {
  const MeshTopology topo(square_poses(8.0), square_config());
  LinkStateProtocol protocol(&topo);
  protocol.converge({});
  protocol.converge({1, 0, 1, 1});  // Reader 1 dies.
  // The gateway's believed topology drops the 0-1 edge: it no longer
  // advertises the dead neighbor, so the symmetric-link rule prunes it.
  const auto during = protocol.believed_topology(0);
  ASSERT_EQ(during[0].size(), 1u);
  EXPECT_EQ(during[0][0].to, 2);
  const int rounds = protocol.converge({});  // Reader 1 restarts, amnesiac.
  EXPECT_GE(rounds, 1);  // The restart has to re-flood.
  for (int n = 1; n < 4; ++n) {
    EXPECT_TRUE(protocol.databases_agree(0, n));
  }
  // Fully relearned: believed topology equals the static graph again.
  const auto believed = protocol.believed_topology(1);
  for (int n = 0; n < 4; ++n) {
    EXPECT_EQ(believed[static_cast<std::size_t>(n)].size(),
              topo.neighbors(n).size());
  }
}

// Topology-epoch convergence through a test_fault-style scripted schedule:
// simultaneous multi-reader loss, then simultaneous restart. After every
// epoch's converge, live nodes in one component must agree and route
// tables must exist exactly for gateway-reachable nodes.
TEST(LinkState, ConvergesThroughScriptedMultiReaderLossAndRestart) {
  const MeshTopology topo(square_poses(8.0), square_config());
  const int epochs = 4;
  const double epoch_s = 0.05;
  fault::FaultSchedule schedule;
  // Readers 1 and 2 both down for exactly epochs 1-2, restart at 3.
  schedule.outages.scripted.push_back({1, 1.0 * epoch_s, 2.0 * epoch_s});
  schedule.outages.scripted.push_back({2, 1.0 * epoch_s, 2.0 * epoch_s});
  fault::FaultEngine engine(schedule, topo.nodes(), 0, epochs, epoch_s, 7);

  LinkStateProtocol protocol(&topo);
  for (int e = 0; e < epochs; ++e) {
    const fault::EpochFaults& faults = engine.begin_epoch(e);
    std::vector<std::uint8_t> live(topo.nodes(), 1);
    for (std::size_t r = 0; r < topo.nodes(); ++r) {
      live[r] = faults.reader_up[r] > 0.0 ? 1 : 0;
    }
    protocol.converge(live);
    EXPECT_EQ(protocol.epoch(), e + 1);
    const std::vector<std::uint8_t> reachable = topo.gateway_reachable(live);
    for (std::size_t n = 0; n < topo.nodes(); ++n) {
      if (live[n] == 0) continue;
      // Live nodes reachable from the gateway share the gateway's
      // component, hence its database.
      if (reachable[n] != 0 && live[0] != 0) {
        EXPECT_TRUE(protocol.databases_agree(0, static_cast<int>(n)))
            << "epoch " << e << " node " << n;
      }
      const RouteTable table(protocol.believed_topology(static_cast<int>(n)),
                             static_cast<int>(n), topo.gateways(),
                             RoutingConfig{});
      EXPECT_EQ(table.best_gateway() >= 0, reachable[n] != 0)
          << "epoch " << e << " node " << n;
    }
  }
  // Final epoch: everyone restarted and relearned the full square.
  EXPECT_EQ(topo.gateway_reachable({}),
            (std::vector<std::uint8_t>{1, 1, 1, 1}));
  for (int n = 1; n < 4; ++n) EXPECT_TRUE(protocol.databases_agree(0, n));
}

}  // namespace
}  // namespace mmtag::mesh
