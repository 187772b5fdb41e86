// Metro backhaul: a 16-reader hall draining inventory over the reader mesh.
//
// The deployment story ROADMAP item 2 asks for, end to end: a 24 x 24 m
// metro hall with sixteen ceiling readers, two of them wired as gateways
// (opposite corners), everyone else reaching a gateway over multi-hop
// 24 GHz backhaul links (6 m reader spacing, 10 m backhaul range, so the
// far half of the hall is two to three hops out). Each fleet epoch the
// readers inventory their cells, the inventory is framed into mesh frames
// and forwarded hop by hop to the nearest gateway, and a chaos
// outage schedule (Poisson reader outages plus one scripted two-epoch
// incident taking out both of gateway 0's nearest transits) keeps the
// topology honest: frames shift to precomputed K-shortest alternates the
// instant their primary next hop is dark, the link-state flood reconverges
// at the epoch boundary, and orphaned tags re-home only to readers that
// can still reach a gateway.
//
// The run is printed twice — failover on vs the frozen-table baseline
// (ForwardingConfig::failover off: no alternates, no table rebuilds) —
// so the delivery-ratio margin the mesh buys is visible in one screen.
//
// Flags: --threads N (worker threads), --seed S, --epochs E.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/deploy/fleet_stats.hpp"
#include "src/fault/schedule.hpp"
#include "src/mesh/backhaul.hpp"
#include "src/sim/table.hpp"

int main(int argc, char** argv) {
  using namespace mmtag;

  int threads = 0;  // 0 = sim::default_thread_count().
  std::uint64_t seed = 2026;
  int epochs = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
      threads = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    if (std::strcmp(argv[i], "--epochs") == 0 && i + 1 < argc)
      epochs = std::atoi(argv[++i]);
  }
  if (epochs < 3) epochs = 3;  // The scripted incident spans epochs 1-2.

  mesh::BackhaulConfig base;
  base.fleet.layout.width_m = 24.0;
  base.fleet.layout.height_m = 24.0;
  base.fleet.layout.readers = 16;
  base.fleet.layout.tags = 400;
  base.fleet.layout.seed = seed;
  base.fleet.epochs = epochs;
  base.fleet.epoch_duration_s = 0.2;
  base.fleet.seed = seed;
  base.fleet.threads = threads;
  // Wired egress at opposite corners of the 4x4 reader grid; 10 m range
  // keeps the far half of the hall multi-hop (grid spacing is 6 m).
  base.topology.gateways = {0, 15};
  base.topology.link.max_range_m = 10.0;
  // ~10% reader downtime plus a scripted incident: readers 1 and 4 (both
  // one grid step from gateway 0) dark for epochs 1-2 whole.
  base.fleet.faults.outages.rate_hz = 0.25;
  base.fleet.faults.outages.mean_duration_s = 0.08;
  const double epoch_s = base.fleet.epoch_duration_s;
  base.fleet.faults.outages.scripted.push_back(
      {1, epoch_s, 2.0 * epoch_s + 0.01});
  base.fleet.faults.outages.scripted.push_back(
      {4, epoch_s, 2.0 * epoch_s + 0.01});

  std::printf("metro backhaul: 16 readers / 2 gateways / %d epochs, "
              "10%% outages + scripted incident (seed %llu)\n\n",
              epochs, static_cast<unsigned long long>(seed));

  for (const bool failover : {true, false}) {
    mesh::BackhaulConfig config = base;
    config.forwarding.failover = failover;
    const mesh::BackhaulReport report =
        mesh::BackhaulSimulator(config).run();

    char title[96];
    std::snprintf(title, sizeof title, "mesh backhaul — failover %s",
                  failover ? "ON (K-shortest alternates)"
                           : "OFF (frozen tables)");
    mesh::backhaul_table(report).print(title);
    std::printf("  epochs converged in %d flood rounds, %llu LSA "
                "transmissions; %llu frames rerouted mid-flight, "
                "%llu of them delivered\n\n",
                report.mesh.convergence_rounds,
                static_cast<unsigned long long>(
                    report.mesh.lsa_transmissions),
                static_cast<unsigned long long>(report.mesh.reroutes),
                static_cast<unsigned long long>(
                    report.mesh.rerouted_delivered));

    if (failover) {
      deploy::fleet_stats_table(report.fleet.stats)
          .print("radio side (identical in both runs)");
      std::printf("  availability %.4f, %d orphan re-handoffs — tags only "
                  "re-home to gateway-reachable readers\n\n",
                  report.fleet.fault.availability,
                  report.fleet.fault.orphan_handoffs);
    }
  }

  std::printf("The failover run delivers every frame the baseline drops at "
              "dead transits;\nrun with --seed to watch the margin persist "
              "across incident realizations.\n");
  return 0;
}
