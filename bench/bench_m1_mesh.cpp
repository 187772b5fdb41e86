// Mesh M1: the reader-backhaul mesh under chaos.
//
// ROADMAP item 2 end to end: per-cell inventory leaves the building over
// the reader mesh, and the claims that matter are measured under failure:
//   1. mesh determinism — a chaos-faulted backhaul run (fleet + link-state
//      + forwarding) produces a bit-identical combined fingerprint at
//      every thread count (hard failure on mismatch: the mesh runs at the
//      epoch barrier, so threads must never reach it);
//   2. failover pays — under a 10% reader-outage schedule, K-shortest
//      failover with epoch reconvergence must deliver a strictly higher
//      fraction of offered frames than the frozen-table no-failover
//      baseline (hard failure otherwise);
//   3. a 64-reader grid vs random topology sweep quotes goodput, path
//      stretch, tail latency and reroutes under the same chaos schedule
//      for EXPERIMENTS.md.
// With MMTAG_OBS=ON the JSON report embeds the mesh.* registry metrics
// (mesh.delivery_latency_us, mesh.path_stretch_x1000, ...) under
// "metrics".
//
// Standard harness flags plus --readers M, --tags N, --epochs E.
// Out-of-range fleet settings print the validation error and exit 2.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_main.hpp"
#include "src/deploy/layout.hpp"
#include "src/fault/engine.hpp"
#include "src/mac/event_queue.hpp"
#include "src/mesh/backhaul.hpp"
#include "src/net/packet.hpp"
#include "src/sim/parallel.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/table.hpp"

namespace {

using namespace mmtag;

/// ~10% expected downtime per reader (rate * mean = 0.1) plus a scripted
/// incident taking the gateway's two nearest transit readers down for
/// epochs 1-2 whole, so the failover margin is visible at any seed —
/// Poisson outages alone can miss every transit in a short run.
fault::ReaderOutageModel ten_percent_outages(int readers, double epoch_s) {
  fault::ReaderOutageModel outages;
  outages.rate_hz = 0.25;
  outages.mean_duration_s = 0.4;
  const int cols = static_cast<int>(
      std::ceil(std::sqrt(static_cast<double>(readers))));
  const int right = readers > 1 ? 1 : 0;             // Gateway's row mate.
  const int below = readers > cols ? cols : right;   // Gateway's column mate.
  outages.scripted.push_back(
      fault::ScriptedOutage{right, epoch_s, 2.0 * epoch_s + 0.01});
  outages.scripted.push_back(
      fault::ScriptedOutage{below, epoch_s, 2.0 * epoch_s + 0.01});
  return outages;
}

mesh::BackhaulConfig backhaul_config(int readers, int tags,
                                     std::uint64_t seed, int epochs) {
  mesh::BackhaulConfig config;
  const double side = 4.0 * std::max(1.0, std::sqrt(readers));
  config.fleet.layout.width_m = side;
  config.fleet.layout.height_m = side;
  config.fleet.layout.readers = readers;
  config.fleet.layout.tags = tags;
  config.fleet.layout.seed = seed;
  config.fleet.epochs = epochs;
  config.fleet.epoch_duration_s = 0.4;
  config.fleet.seed = seed;
  config.fleet.faults.outages =
      ten_percent_outages(readers, config.fleet.epoch_duration_s);
  // Two wired sinks at opposite corners of the grid; backhaul range of
  // 1.5 grid spacings (spacing is 4 m at any --readers) keeps the mesh
  // genuinely multi-hop, so transit outages have something to break.
  config.topology.gateways = {0, readers - 1};
  config.topology.link.max_range_m = 6.0;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  int readers = 64;
  int tags = 1024;
  int epochs = 3;
  bench::Parser parser("m1_mesh",
                       "reader-backhaul mesh: determinism, failover margin, "
                       "topology sweep under chaos outages");
  parser.add_int("--readers", &readers, "reader count");
  parser.add_int("--tags", &tags, "tag count");
  parser.add_int("--epochs", &epochs, "epochs per run");
  if (!parser.parse(argc, argv)) return parser.exit_code();
  const std::uint64_t seed = parser.options().seed;
  try {
    backhaul_config(readers, tags, seed, epochs).fleet.validate();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  bench::Harness harness(parser.options());
  bool fail = false;

  // --- 1. Mesh determinism across thread counts -------------------------
  const int hw = sim::default_thread_count();
  const std::vector<int> grid = bench::thread_grid({1, 4, hw}, true);

  const std::vector<std::string> det_headers = {
      "threads", "wall_s", "frames", "delivery", "reroutes", "backhaul_fp"};
  sim::Table det_table(det_headers);

  harness.add("mesh_determinism", [&](bench::CaseContext& ctx) {
    det_table = sim::Table(det_headers);
    double frames = 0.0;
    const auto run = [&](int threads) -> std::vector<std::uint64_t> {
      mesh::BackhaulConfig config =
          backhaul_config(readers, tags, seed, epochs);
      config.fleet.threads = threads;
      const mesh::BackhaulReport report =
          mesh::BackhaulSimulator(config).run();
      const std::uint64_t fp = mesh::fingerprint(report);
      det_table.add_row({std::to_string(threads),
                         sim::Table::fmt(report.fleet.sweep.wall_s, 3),
                         std::to_string(report.mesh.offered),
                         sim::Table::fmt(report.mesh.delivery_ratio(), 4),
                         std::to_string(report.mesh.reroutes),
                         bench::hex64(fp)});
      frames += static_cast<double>(report.mesh.offered);
      return {fp};
    };
    if (!bench::check_thread_invariance("backhaul run", grid, run)) {
      fail = true;
    }
    ctx.set_units(frames, "mesh frames");
  });

  // --- 2. Failover vs frozen-table baseline under 10% outages -----------
  const std::vector<std::string> fo_headers = {
      "failover", "frames", "delivery", "reroutes", "rerouted_ok",
      "no_route", "stretch", "p99_us"};
  sim::Table fo_table(fo_headers);

  harness.add("failover_vs_none", [&](bench::CaseContext& ctx) {
    fo_table = sim::Table(fo_headers);
    double delivery[2] = {0.0, 0.0};
    double frames = 0.0;
    for (const bool failover : {false, true}) {
      mesh::BackhaulConfig config =
          backhaul_config(readers, tags, seed, epochs);
      config.forwarding.failover = failover;
      config.forwarding.reconverge = failover;
      const mesh::BackhaulReport report =
          mesh::BackhaulSimulator(config).run();
      const mesh::MeshStats& m = report.mesh;
      delivery[failover ? 1 : 0] = m.delivery_ratio();
      fo_table.add_row({failover ? "on" : "off",
                        std::to_string(m.offered),
                        sim::Table::fmt(m.delivery_ratio(), 4),
                        std::to_string(m.reroutes),
                        std::to_string(m.rerouted_delivered),
                        std::to_string(m.dropped_no_route),
                        sim::Table::fmt(m.stretch_mean, 3),
                        sim::Table::fmt(m.latency_p99_s * 1e6, 1)});
      frames += static_cast<double>(m.offered);
    }
    if (delivery[1] <= delivery[0]) {
      std::fprintf(stderr,
                   "FAIL: failover delivery %.4f <= baseline %.4f\n",
                   delivery[1], delivery[0]);
      fail = true;
    }
    ctx.set_units(frames, "mesh frames");
  });

  // --- 3. Grid vs random 64-reader topologies ---------------------------
  const std::vector<std::string> topo_headers = {
      "topology", "links", "rounds", "goodput", "delivery", "stretch",
      "stretch_max", "p99_us", "reroutes"};
  sim::Table topo_table(topo_headers);

  harness.add("topology_sweep", [&](bench::CaseContext& ctx) {
    topo_table = sim::Table(topo_headers);
    const double side = 4.0 * std::max(1.0, std::sqrt(readers));
    const double epoch_s = 0.4;
    const int frames_per_node = 4;
    const std::size_t payload = 256;
    double frames = 0.0;

    for (const bool random : {false, true}) {
      // Grid poses come from the deploy layout (same generator the fleet
      // uses); random poses are uniform draws, re-seeded deterministically
      // until the topology is fully connected.
      std::vector<core::Pose> poses;
      mesh::TopologyConfig topo_config;
      topo_config.gateways = {0, readers - 1};
      topo_config.link.max_range_m = 6.0;
      if (!random) {
        deploy::LayoutConfig layout;
        layout.width_m = side;
        layout.height_m = side;
        layout.readers = readers;
        layout.tags = 0;
        layout.seed = seed;
        poses = deploy::make_layout(layout).reader_poses;
      } else {
        for (int attempt = 0; attempt < 32; ++attempt) {
          poses.clear();
          auto rng = sim::make_rng(sim::derive_seed(seed, 7000 + attempt));
          std::uniform_real_distribution<double> u(0.5, side - 0.5);
          for (int r = 0; r < readers; ++r) {
            const double x = u(rng);
            const double y = u(rng);
            poses.push_back(core::Pose{{x, y}, 0.0});
          }
          if (mesh::MeshTopology(poses, topo_config).fully_connected()) break;
        }
      }
      const mesh::MeshTopology topo(poses, topo_config);
      if (!topo.fully_connected()) {
        std::fprintf(stderr, "FAIL: %s topology is not connected\n",
                     random ? "random" : "grid");
        fail = true;
        continue;
      }

      net::PacketPool pool(512, payload, 32);
      mesh::MeshNetwork net(&topo, mesh::ForwardingConfig{}, &pool);
      fault::FaultSchedule schedule;
      schedule.outages = ten_percent_outages(readers, epoch_s);
      fault::FaultEngine engine(schedule, static_cast<std::size_t>(readers),
                                0, epochs, epoch_s, seed);
      for (int e = 0; e < epochs; ++e) {
        const fault::EpochFaults& faults = engine.begin_epoch(e);
        std::vector<std::uint8_t> live(static_cast<std::size_t>(readers), 1);
        for (int r = 0; r < readers; ++r) {
          live[static_cast<std::size_t>(r)] =
              faults.reader_up[static_cast<std::size_t>(r)] > 0.0 ? 1 : 0;
        }
        net.begin_epoch(live);
        mac::EventQueue queue;
        const double start_s = e * epoch_s;
        for (int r = 0; r < readers; ++r) {
          if (live[static_cast<std::size_t>(r)] == 0) continue;
          for (int f = 0; f < frames_per_node; ++f) {
            (void)net.send(queue, r, payload,
                           start_s + 1e-3 * (r * frames_per_node + f + 1));
          }
        }
        queue.run();
        net.reconverge();
      }
      const mesh::MeshStats m = net.finish(epochs * epoch_s);
      const double goodput_bps =
          static_cast<double>(m.payload_bytes_delivered) * 8.0 /
          (epochs * epoch_s);
      topo_table.add_row({random ? "random" : "grid",
                          std::to_string(topo.links().size()),
                          std::to_string(m.convergence_rounds),
                          sim::Table::fmt_rate(goodput_bps),
                          sim::Table::fmt(m.delivery_ratio(), 4),
                          sim::Table::fmt(m.stretch_mean, 3),
                          sim::Table::fmt(m.stretch_max, 3),
                          sim::Table::fmt(m.latency_p99_s * 1e6, 1),
                          std::to_string(m.reroutes)});
      frames += static_cast<double>(m.offered);
    }
    ctx.set_units(frames, "mesh frames");
  });

  const int rc = harness.run();
  if (rc != 0) return rc;

  if (parser.csv()) {
    std::fputs(det_table.to_csv().c_str(), stdout);
    std::fputs(fo_table.to_csv().c_str(), stdout);
    std::fputs(topo_table.to_csv().c_str(), stdout);
  } else {
    char title[128];
    std::snprintf(title, sizeof title,
                  "M1 — mesh determinism (%d readers / %d tags, 10%% "
                  "outages, hw=%d)",
                  readers, tags, hw);
    det_table.print(title);
    fo_table.print("M1 — failover vs frozen tables (10% reader outages)");
    topo_table.print("M1 — grid vs random topology under chaos");
  }
  return fail ? 1 : 0;
}
