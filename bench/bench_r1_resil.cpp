// Resilience R1: the control plane under fire (DESIGN.md Sec. 15).
//
// The deterministic resilience control plane: phi-accrual failure
// detection from observed outcomes only, and degraded-mode service under
// grid-correlated outage domains. This bench hard-gates its four
// load-bearing claims:
//   1. control-plane determinism — a metro run with a scripted outage
//      domain AND the monitor steering service produces bit-identical
//      world-state and monitor fingerprints at {1, 4, hw} threads
//      (suspicion is drawn on the coordinating thread; thread count must
//      not influence a single bit);
//   2. detection lag — a HealthMonitor attached to a FleetSimulator
//      chaos(0.5) run via the epoch observer (it sees per-reader reports
//      only, never the FaultSchedule) suspects every reader that is fully
//      down for >= 2 consecutive epochs within 2 epochs of the outage
//      start, scored against timelines reconstructed ONLY for grading;
//   3. degradation pays — under a correlated 2x2-of-4x4 domain incident,
//      the control-plane-on world (suspected readers skipped, tags
//      re-homed to the nearest serving neighbor) beats the off world on
//      delivered bits by a strict margin, and suspicion clears after the
//      incident ends (half-open probes re-admit recovered readers);
//   4. legacy identity — control_plane=false plus a schedule with no
//      covering domain is bit-identical to the default legacy world, so
//      the resilience plumbing costs nothing when unused.
//
// Standard harness flags plus --readers M, --tags N, --epochs E (fleet),
// --metro-tags N, --metro-epochs E, --grid G, --margin F. Out-of-range
// fleet or metro settings print the validation error and exit 2.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_main.hpp"
#include "src/deploy/fleet.hpp"
#include "src/fault/engine.hpp"
#include "src/phy/rate_table.hpp"
#include "src/resil/domain.hpp"
#include "src/resil/health.hpp"
#include "src/scale/world.hpp"
#include "src/sim/parallel.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/table.hpp"

namespace {

using namespace mmtag;

/// Metro geometry sized for re-homing: grid spacing at 60% of the TOP
/// rate tier's range, so an adopter reaches a failed neighbor's tags at
/// a useful tier (delivered bits scale ~100x with tier; spacing at the
/// detect limit would make every adopted read worth peanuts and the
/// degraded-mode margin unmeasurable on goodput). Suspected readers
/// probe every 4 epochs so re-homed service, not half-open probing,
/// dominates an outage.
scale::MetroConfig resil_metro_config(int grid, std::size_t tags,
                                      std::uint64_t seed) {
  scale::MetroConfig config;
  const scale::BatchLinkModel model = scale::BatchLinkModel::from_budget(
      config.budget, phy::RateTable::mmtag_standard());
  const double spacing = 0.6 * std::sqrt(model.tier_r2_m2.front());
  config.readers_x = grid;
  config.readers_y = grid;
  config.width_m = spacing * grid;
  config.height_m = spacing * grid;
  config.index_cell_m = std::max(0.5, spacing / 4.0);
  config.tags = tags;
  config.polls_per_reader = 512;
  config.health.probe_interval_epochs = 4;
  config.seed = seed;
  return config;
}

deploy::FleetConfig fleet_config(int readers, int tags, std::uint64_t seed,
                                 int epochs) {
  deploy::FleetConfig config;
  const double side = 4.0 * std::max(1.0, std::sqrt(readers));
  config.layout.width_m = side;
  config.layout.height_m = side;
  config.layout.readers = readers;
  config.layout.tags = tags;
  config.layout.seed = seed;
  config.epochs = epochs;
  config.epoch_duration_s = 0.4;
  config.seed = seed;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  int readers = 8;
  int tags = 600;
  int fleet_epochs = 10;
  int metro_tags = 3000;
  int metro_epochs = 12;
  int grid = 4;
  double margin = 1.05;
  bench::Parser parser("r1_resil",
                       "resilience control plane: determinism, detection "
                       "lag, degraded-mode margin, legacy identity");
  parser.add_int("--readers", &readers, "fleet reader count");
  parser.add_int("--tags", &tags, "fleet tag count");
  parser.add_int("--epochs", &fleet_epochs, "fleet epochs (detection lag)");
  parser.add_int("--metro-tags", &metro_tags, "metro tag count");
  parser.add_int("--metro-epochs", &metro_epochs, "metro epochs");
  parser.add_int("--grid", &grid, "metro reader grid side (G x G)");
  parser.add_double("--margin", &margin,
                    "required on/off delivered-bits ratio");
  if (!parser.parse(argc, argv)) return parser.exit_code();
  const std::uint64_t seed = parser.options().seed;

  // The scripted incident every metro case shares: the lower-left 2x2
  // block of the reader grid (a quarter of a 4x4 deployment — one power
  // feeder) down for epochs [2, 10).
  const resil::OutageDomain incident{0, 0, 1, 1, 2, 10};

  try {
    scale::MetroConfig metro = resil_metro_config(
        grid, static_cast<std::size_t>(metro_tags), seed);
    metro.domains.domains.push_back(incident);
    metro.validate();
    fleet_config(readers, tags, seed, fleet_epochs).validate();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  bench::Harness harness(parser.options());
  bool fail = false;

  const int hw = sim::default_thread_count();
  const std::vector<int> thread_grid = bench::thread_grid({1, 4, hw}, false);

  // --- 1. Control-plane determinism across thread counts ----------------
  const std::vector<std::string> det_headers = {
      "threads", "wall_s", "adopted", "suspected_end", "state_fp",
      "monitor_fp"};
  sim::Table det_table(det_headers);

  harness.add("thread_invariance", [&](bench::CaseContext& ctx) {
    det_table = sim::Table(det_headers);
    double reads = 0.0;
    const auto run = [&](int threads) -> std::vector<std::uint64_t> {
      scale::MetroConfig config = resil_metro_config(
          grid, static_cast<std::size_t>(metro_tags), seed);
      config.domains.domains.push_back(incident);
      config.control_plane = true;
      scale::MetroWorld world(config);
      sim::ThreadPool pool(threads);
      sim::SweepStats sweep;
      sweep.threads = pool.size();
      std::uint64_t adopted = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int e = 0; e < metro_epochs; ++e) {
        adopted += world.run_epoch(pool).tags_adopted;
      }
      sweep.wall_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
      const std::uint64_t state = world.state_fingerprint();
      const std::uint64_t mon = world.monitor()->fingerprint();
      const scale::MetroStats stats = world.stats();
      det_table.add_row(
          {std::to_string(threads), sim::Table::fmt(sweep.wall_s, 3),
           std::to_string(adopted),
           std::to_string(world.monitor()->suspected_count()),
           bench::hex64(state), bench::hex64(mon)});
      reads += static_cast<double>(stats.successes);
      return {state, mon};
    };
    if (!bench::check_thread_invariance("control-plane run (state, monitor)",
                                        thread_grid, run)) {
      fail = true;
    }
    ctx.set_units(reads, "tag reads");
  });

  // --- 2. Detection lag under chaos(0.5) --------------------------------
  const std::vector<std::string> lag_headers = {
      "episodes", "lag_max", "outages", "avail", "coverage"};
  sim::Table lag_table(lag_headers);

  harness.add("detection_lag", [&](bench::CaseContext& ctx) {
    lag_table = sim::Table(lag_headers);
    deploy::FleetConfig config =
        fleet_config(readers, tags, seed, fleet_epochs);
    config.faults = fault::FaultSchedule::chaos(0.5);
    const double dur = config.epoch_duration_s;
    // One guaranteed >= 3-full-epoch incident so the gate always has a
    // measurable episode regardless of where the Poisson arrivals land.
    config.faults.outages.scripted.push_back(
        fault::ScriptedOutage{0, 2.0 * dur, 3.0 * dur + 0.01});
    const std::size_t m = static_cast<std::size_t>(readers);

    // The monitor rides the epoch observer: it sees each reader's
    // (assigned, discovered) report — the evidence a real coordinator
    // has — and nothing else.
    resil::HealthMonitor monitor(m);
    std::vector<std::vector<std::uint8_t>> suspected(
        static_cast<std::size_t>(fleet_epochs),
        std::vector<std::uint8_t>(m, 0));
    config.epoch_observer =
        [&](int e, const std::vector<deploy::CellEpochResult>& cells,
            const std::vector<std::uint8_t>&) {
          for (std::size_t c = 0; c < cells.size(); ++c) {
            monitor.record(c,
                           static_cast<std::uint64_t>(cells[c].tags_assigned),
                           static_cast<std::uint64_t>(cells[c].tags_discovered));
          }
          monitor.end_epoch();
          for (std::size_t r = 0; r < m; ++r) {
            suspected[static_cast<std::size_t>(e)][r] =
                monitor.suspected(r) ? 1 : 0;
          }
        };
    const deploy::FleetResult result = deploy::FleetSimulator(config).run();

    // Grading only: reconstruct the exact outage timelines the fleet
    // realized (same derive_seed stream) and score the monitor against
    // them. The monitor itself never touched this.
    fault::FaultEngine oracle(config.faults, m,
                              static_cast<std::size_t>(tags), fleet_epochs,
                              dur, sim::derive_seed(seed, 0x66617574));
    int episodes = 0;
    int lag_max = 0;
    for (std::size_t r = 0; r < m; ++r) {
      std::vector<std::uint8_t> down(static_cast<std::size_t>(fleet_epochs),
                                     0);
      for (int e = 0; e < fleet_epochs; ++e) {
        const double lo = e * dur;
        const double hi = (e + 1) * dur;
        for (const fault::Outage& o : oracle.outage_timelines()[r]) {
          if (o.start_s <= lo + 1e-9 && o.end_s() >= hi - 1e-9) {
            down[static_cast<std::size_t>(e)] = 1;
            break;
          }
        }
      }
      for (int e = 0; e < fleet_epochs;) {
        if (!down[static_cast<std::size_t>(e)]) {
          ++e;
          continue;
        }
        int len = 0;
        while (e + len < fleet_epochs &&
               down[static_cast<std::size_t>(e + len)]) {
          ++len;
        }
        // Episodes of >= 2 fully-down epochs must be caught within 2.
        if (len >= 2) {
          ++episodes;
          int lag = len + 1;
          for (int k = 0; k < len; ++k) {
            if (suspected[static_cast<std::size_t>(e + k)][r]) {
              lag = k + 1;
              break;
            }
          }
          lag_max = std::max(lag_max, lag);
        }
        e += len;
      }
    }
    if (episodes == 0) {
      std::fprintf(stderr,
                   "FAIL: no measurable outage episode (scripted incident "
                   "missing?)\n");
      fail = true;
    }
    if (lag_max > 2) {
      std::fprintf(stderr,
                   "FAIL: detection lag %d epochs > 2 at chaos(0.5)\n",
                   lag_max);
      fail = true;
    }
    lag_table.add_row({std::to_string(episodes), std::to_string(lag_max),
                       std::to_string(result.fault.reader_outages),
                       sim::Table::fmt(result.fault.availability, 4),
                       sim::Table::fmt(result.stats.coverage(), 3)});
    ctx.set_units(static_cast<double>(result.sweep.units), "sim reads");
  });

  // --- 3. Degraded-mode margin under the correlated incident ------------
  const std::vector<std::string> deg_headers = {
      "control_plane", "delivered_mbit", "adopted", "down_epochs",
      "suspected_end"};
  sim::Table deg_table(deg_headers);

  harness.add("degraded_margin", [&](bench::CaseContext& ctx) {
    deg_table = sim::Table(deg_headers);
    double delivered[2] = {0.0, 0.0};
    double reads = 0.0;
    for (const bool on : {false, true}) {
      scale::MetroConfig config = resil_metro_config(
          grid, static_cast<std::size_t>(metro_tags), seed);
      config.domains.domains.push_back(incident);
      config.control_plane = on;
      scale::MetroWorld world(config);
      sim::ThreadPool pool(parser.options().threads);
      std::uint64_t adopted = 0;
      std::uint64_t down_epochs = 0;
      for (int e = 0; e < metro_epochs; ++e) {
        const scale::MetroEpochStats epoch = world.run_epoch(pool);
        adopted += epoch.tags_adopted;
        down_epochs += epoch.readers_down;
      }
      const scale::MetroStats stats = world.stats();
      delivered[on ? 1 : 0] = stats.delivered_bits;
      const std::size_t suspected_end =
          world.monitor() ? world.monitor()->suspected_count() : 0;
      if (on && suspected_end != 0) {
        std::fprintf(stderr,
                     "FAIL: %zu readers still suspected %d epochs after "
                     "the incident ended (probes did not re-admit)\n",
                     suspected_end,
                     metro_epochs - static_cast<int>(incident.end_epoch));
        fail = true;
      }
      deg_table.add_row({on ? "on" : "off",
                         sim::Table::fmt(stats.delivered_bits / 1e6, 3),
                         std::to_string(adopted),
                         std::to_string(down_epochs),
                         std::to_string(suspected_end)});
      reads += static_cast<double>(stats.successes);
    }
    if (delivered[1] < delivered[0] * margin) {
      std::fprintf(stderr,
                   "FAIL: control plane on delivered %.0f bits < %.2fx "
                   "off (%.0f bits)\n",
                   delivered[1], margin, delivered[0]);
      fail = true;
    }
    ctx.set_units(reads, "tag reads");
  });

  // --- 4. Legacy identity with the plumbing dormant ---------------------
  const std::vector<std::string> id_headers = {"world", "wall_s",
                                               "state_fp"};
  sim::Table id_table(id_headers);

  harness.add("legacy_identity", [&](bench::CaseContext& ctx) {
    id_table = sim::Table(id_headers);
    std::uint64_t fps[2] = {0, 0};
    double wall[2] = {0.0, 0.0};
    double reads = 0.0;
    for (const int variant : {0, 1}) {
      scale::MetroConfig config = resil_metro_config(
          grid, static_cast<std::size_t>(metro_tags), seed);
      if (variant == 1) {
        // Armed but vacuous: control plane off, and a schedule whose one
        // domain covers no epoch. The mask path runs; the physics must
        // not move by a single bit.
        config.control_plane = false;
        config.domains.domains.push_back(
            resil::OutageDomain{0, 0, 0, 0, 0, 0});
      }
      scale::MetroWorld world(config);
      sim::ThreadPool pool(parser.options().threads);
      const auto t0 = std::chrono::steady_clock::now();
      for (int e = 0; e < metro_epochs; ++e) (void)world.run_epoch(pool);
      wall[variant] = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      fps[variant] = world.state_fingerprint();
      id_table.add_row({variant == 0 ? "legacy" : "dormant",
                        sim::Table::fmt(wall[variant], 3),
                        bench::hex64(fps[variant])});
      reads += static_cast<double>(world.stats().successes);
    }
    if (fps[0] != fps[1]) {
      std::fprintf(stderr,
                   "FAIL: dormant resilience plumbing changed world state "
                   "(%s vs %s)\n",
                   bench::hex64(fps[1]).c_str(),
                   bench::hex64(fps[0]).c_str());
      fail = true;
    }
    ctx.set_units(reads, "tag reads");
  });

  const int rc = harness.run();
  if (rc != 0) return rc;

  if (parser.csv()) {
    std::fputs(det_table.to_csv().c_str(), stdout);
    std::fputs(lag_table.to_csv().c_str(), stdout);
    std::fputs(deg_table.to_csv().c_str(), stdout);
    std::fputs(id_table.to_csv().c_str(), stdout);
  } else {
    char title[160];
    std::snprintf(title, sizeof title,
                  "R1 — control-plane determinism (%dx%d grid, %d tags, "
                  "incident epochs [%" PRIu64 ", %" PRIu64 "), hw=%d)",
                  grid, grid, metro_tags, incident.start_epoch,
                  incident.end_epoch, hw);
    det_table.print(title);
    lag_table.print("R1 — detection lag (fleet chaos(0.5), observer-fed)");
    deg_table.print("R1 — degraded-mode margin (correlated 2x2 incident)");
    id_table.print("R1 — legacy identity (dormant plumbing)");
  }
  return fail ? 1 : 0;
}
