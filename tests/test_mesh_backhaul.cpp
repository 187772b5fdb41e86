// Backhaul integration (src/mesh/backhaul + the FleetConfig hooks):
// mesh-aware orphan re-handoff (a live but mesh-partitioned reader must
// not receive orphans — the coordinator regression), the epoch-observer
// drain point, and end-to-end BackhaulSimulator determinism across thread
// counts.
#include "src/mesh/backhaul.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/deploy/coordinator.hpp"
#include "src/deploy/fleet.hpp"
#include "src/deploy/layout.hpp"
#include "src/mesh/topology.hpp"
#include "src/reader/reader.hpp"
#include "src/sim/parallel.hpp"

namespace mmtag::mesh {
namespace {

/// 16 m x 16 m hall, 4 readers. make_layout puts them on a 2x2 grid at
/// (4,4) (12,4) (4,12) (12,12): side 8 m, diagonal 11.3 m, so a 9 m mesh
/// range forms edge links only (0-1, 0-2, 1-3, 2-3) and killing readers
/// 1 and 2 partitions reader 3 from gateway 0 while it is still radio-live.
deploy::FleetConfig partition_fleet() {
  deploy::FleetConfig config;
  config.layout.width_m = 16.0;
  config.layout.height_m = 16.0;
  config.layout.readers = 4;
  config.layout.tags = 48;
  config.layout.seed = 11;
  config.epochs = 2;
  config.epoch_duration_s = 0.02;
  config.seed = 11;
  config.threads = 1;
  // Readers 1 and 2 both out for exactly the second epoch.
  config.faults.outages.scripted.push_back(
      {1, config.epoch_duration_s, config.epoch_duration_s});
  config.faults.outages.scripted.push_back(
      {2, config.epoch_duration_s, config.epoch_duration_s});
  return config;
}

TopologyConfig partition_topology_config() {
  TopologyConfig config;
  config.link.max_range_m = 9.0;
  return config;
}

TEST(ReassignOrphans, MeshPartitionedReaderReceivesNoOrphans) {
  // Two readers; one tag parked next to reader 1.
  const std::vector<reader::MmWaveReader> readers = {
      reader::MmWaveReader::prototype_at(core::Pose{{0.0, 0.0}, 0.0}),
      reader::MmWaveReader::prototype_at(core::Pose{{10.0, 0.0}, 0.0})};
  const std::vector<core::MmTag> tags = {
      core::MmTag::prototype_at(core::Pose{{9.0, 0.0}, 0.0}, 1000)};
  std::vector<int> tag_cell = {1};

  // Both radio-live, but reader 1 cannot reach a gateway: the orphan fix
  // must steer the tag to the reachable reader.
  const int moved = deploy::FleetCoordinator::reassign_orphans(
      tags, readers, {1, 1}, {1, 0}, tag_cell);
  EXPECT_EQ(moved, 1);
  EXPECT_EQ(tag_cell[0], 0);

  // Empty reachability = no mesh deployed: nearest live reader wins again.
  tag_cell = {1};
  EXPECT_EQ(deploy::FleetCoordinator::reassign_orphans(tags, readers, {1, 1},
                                                       {}, tag_cell),
            0);
  EXPECT_EQ(tag_cell[0], 1);

  // Nobody serviceable: membership is left untouched (nowhere to go).
  tag_cell = {1};
  EXPECT_EQ(deploy::FleetCoordinator::reassign_orphans(tags, readers, {1, 1},
                                                       {0, 0}, tag_cell),
            0);
  EXPECT_EQ(tag_cell[0], 1);
}

// The scripted-partition regression: reader 3 stays radio-live through the
// outage epoch, but with readers 1 and 2 down it cannot reach the gateway.
// Without the mesh hook it soaks up orphans (and their inventory is
// stranded); with the hook every tag evacuates to the gateway's cell.
TEST(FleetMeshHook, LivePartitionedReaderIsNotGivenOrphans) {
  const deploy::FleetLayout layout =
      deploy::make_layout(partition_fleet().layout);
  const MeshTopology topo(layout.reader_poses, partition_topology_config());
  ASSERT_EQ(topo.gateway_reachable({1, 0, 0, 1}),
            (std::vector<std::uint8_t>{1, 0, 0, 0}));

  // Baseline (no hook): the partitioned reader still collects tags.
  deploy::FleetConfig without = partition_fleet();
  const deploy::FleetResult r_without =
      deploy::FleetSimulator(without).run();
  ASSERT_EQ(r_without.last_epoch.size(), 4u);
  EXPECT_GT(r_without.last_epoch[3].tags_assigned, 0);

  // Mesh-aware: all tags drain to the only gateway-reachable reader.
  deploy::FleetConfig with = partition_fleet();
  with.backhaul_reachable = [&topo](int,
                                    const std::vector<std::uint8_t>& live) {
    return topo.gateway_reachable(live);
  };
  const deploy::FleetResult r_with = deploy::FleetSimulator(with).run();
  ASSERT_EQ(r_with.last_epoch.size(), 4u);
  EXPECT_EQ(r_with.last_epoch[3].tags_assigned, 0);
  EXPECT_EQ(r_with.last_epoch[1].tags_assigned, 0);
  EXPECT_EQ(r_with.last_epoch[2].tags_assigned, 0);
  EXPECT_EQ(r_with.last_epoch[0].tags_assigned, 48);
}

TEST(FleetMeshHook, EpochObserverRunsOncePerEpochAfterTheMerge) {
  deploy::FleetConfig config = partition_fleet();
  std::vector<int> observed_epochs;
  std::vector<std::size_t> observed_cells;
  std::vector<int> observed_live1;
  config.epoch_observer = [&](int epoch,
                              const std::vector<deploy::CellEpochResult>&
                                  cells,
                              const std::vector<std::uint8_t>& live) {
    observed_epochs.push_back(epoch);
    observed_cells.push_back(cells.size());
    observed_live1.push_back(live.empty() ? 1 : live[1]);
  };
  (void)deploy::FleetSimulator(config).run();
  EXPECT_EQ(observed_epochs, (std::vector<int>{0, 1}));
  EXPECT_EQ(observed_cells, (std::vector<std::size_t>{4, 4}));
  // The scripted outage is visible to the observer in epoch 1.
  EXPECT_EQ(observed_live1, (std::vector<int>{1, 0}));
}

BackhaulConfig small_backhaul() {
  BackhaulConfig config;
  config.fleet = partition_fleet();
  config.topology = partition_topology_config();
  return config;
}

TEST(BackhaulSimulator, DrainsInventoryAndReportsMeshStats) {
  const BackhaulReport report = BackhaulSimulator(small_backhaul()).run();
  EXPECT_EQ(report.readers, 4);
  EXPECT_EQ(report.gateways, 1);
  EXPECT_EQ(report.mesh_links, 8);
  EXPECT_DOUBLE_EQ(report.horizon_s, 2 * 0.02);
  EXPECT_EQ(report.mesh.topology_epochs, 2);
  EXPECT_GT(report.mesh.offered, 0u);
  EXPECT_GT(report.mesh.delivered, 0u);
  EXPECT_LE(report.mesh.delivery_ratio(), 1.0);
  EXPECT_GE(report.mesh.stretch_mean, 1.0);
  EXPECT_GT(report.fleet.stats.tags_read, 0);
  const sim::Table table = backhaul_table(report);
  EXPECT_GT(table.rows(), 0u);
}

TEST(BackhaulSimulator, FingerprintIsThreadCountInvariant) {
  BackhaulConfig config = small_backhaul();
  config.fleet.threads = 1;
  const BackhaulReport serial = BackhaulSimulator(config).run();
  config.fleet.threads = 4;
  const BackhaulReport wide = BackhaulSimulator(config).run();
  EXPECT_EQ(fingerprint(serial), fingerprint(wide));
  EXPECT_EQ(fingerprint(serial.mesh), fingerprint(wide.mesh));
  config.fleet.threads = sim::default_thread_count();
  const BackhaulReport hw = BackhaulSimulator(config).run();
  EXPECT_EQ(fingerprint(serial), fingerprint(hw));
}

TEST(BackhaulSimulator, RepeatedRunsAreBitIdentical) {
  const BackhaulConfig config = small_backhaul();
  const BackhaulReport a = BackhaulSimulator(config).run();
  const BackhaulReport b = BackhaulSimulator(config).run();
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(BackhaulValidate, EveryOutOfRangeFieldIsRejectedByName) {
  // The backhaul's only rules are the fleet's.
  EXPECT_NO_THROW(BackhaulSimulator{small_backhaul()});
  BackhaulConfig config = small_backhaul();
  config.fleet.epochs = 0;
  try {
    const BackhaulSimulator simulator(config);
    ADD_FAILURE() << "FleetConfig::epochs was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("FleetConfig::epochs"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace mmtag::mesh
