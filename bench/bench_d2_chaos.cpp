// Deployment D2: chaos — the fleet under fault injection.
//
// A batteryless warehouse network lives in a regime of constant partial
// failure; this bench exercises the src/fault engine end to end and
// verifies the resilience claims:
//   1. chaos determinism — with a fixed seed, a faulted run produces
//      bit-identical fleet AND fault fingerprints at every thread count
//      (hard failure on mismatch: fault realization must be scheduling-
//      independent);
//   2. recovery pays — under a 10% reader-outage schedule, availability
//      with orphan re-handoff must exceed the no-recovery baseline, and
//      MTTR must not be worse (hard failure otherwise);
//   3. an intensity sweep (chaos(0)..chaos(1)) quotes goodput, Jain
//      fairness, availability and MTTR vs fault intensity for
//      EXPERIMENTS.md.
// With MMTAG_OBS=ON the JSON report embeds the fault.* registry metrics
// (fault.mttr_us, fault.availability_ppm, ...) under "metrics".
//
// Standard harness flags plus --readers M, --tags N, --epochs E.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_main.hpp"
#include "src/deploy/fleet.hpp"
#include "src/fault/engine.hpp"
#include "src/sim/parallel.hpp"
#include "src/sim/table.hpp"

namespace {

using namespace mmtag;

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

/// ~10% expected downtime per reader (rate * mean_duration = 0.1) plus
/// one scripted incident taking reader 0 down for epochs 1-2 whole, so
/// the recovery margin is visible at any seed — Poisson outages alone can
/// miss every epoch boundary in a short run.
fault::ReaderOutageModel ten_percent_outages(double epoch_s) {
  fault::ReaderOutageModel outages;
  outages.rate_hz = 0.25;
  outages.mean_duration_s = 0.4;
  outages.scripted.push_back(
      fault::ScriptedOutage{0, epoch_s, 2.0 * epoch_s + 0.01});
  return outages;
}

}  // namespace

int main(int argc, char** argv) {
  int readers = 8;
  int tags = 600;
  int epochs = 4;
  bench::Parser parser("d2_chaos",
                       "fleet under fault injection: determinism, recovery, "
                       "intensity sweep");
  parser.add_int("--readers", &readers, "reader count");
  parser.add_int("--tags", &tags, "tag count");
  parser.add_int("--epochs", &epochs, "epochs per fleet run");
  if (!parser.parse(argc, argv)) return parser.exit_code();
  const std::uint64_t seed = parser.options().seed;
  try {
    fleet_config(readers, tags, seed, epochs).validate();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  bench::Harness harness(parser.options());
  bool fail = false;

  // --- 1. Chaos determinism across thread counts ------------------------
  const int hw = sim::default_thread_count();
  const std::vector<int> grid = bench::thread_grid({1, 4, hw}, true);

  const std::vector<std::string> det_headers = {
      "threads", "wall_s", "coverage", "avail", "outages", "fleet_fp",
      "fault_fp"};
  sim::Table det_table(det_headers);

  harness.add("chaos_determinism", [&](bench::CaseContext& ctx) {
    det_table = sim::Table(det_headers);
    double sim_reads = 0.0;
    const auto run = [&](int threads) -> std::vector<std::uint64_t> {
      deploy::FleetConfig config = fleet_config(readers, tags, seed, epochs);
      config.faults = fault::FaultSchedule::chaos(0.5);
      config.threads = threads;
      const deploy::FleetResult result =
          deploy::FleetSimulator(config).run();
      const std::uint64_t fleet_fp = deploy::fingerprint(result.stats);
      const std::uint64_t fault_fp = fault::fingerprint(result.fault);
      det_table.add_row({std::to_string(threads),
                         sim::Table::fmt(result.sweep.wall_s, 3),
                         sim::Table::fmt(result.stats.coverage(), 3),
                         sim::Table::fmt(result.fault.availability, 4),
                         std::to_string(result.fault.reader_outages),
                         bench::hex64(fleet_fp), bench::hex64(fault_fp)});
      sim_reads += static_cast<double>(result.sweep.units);
      return {fleet_fp, fault_fp};
    };
    if (!bench::check_thread_invariance("chaos run (fleet, fault)", grid,
                                        run)) {
      fail = true;
    }
    ctx.set_units(sim_reads, "sim reads");
  });

  // --- 2. Recovery vs no recovery under 10% reader outages --------------
  const std::vector<std::string> rec_headers = {
      "recovery", "avail", "orphan_tag_s", "mttr_mean_ms", "mttr_max_ms",
      "rehandoffs", "coverage", "goodput_mean"};
  sim::Table rec_table(rec_headers);

  harness.add("recovery_vs_none", [&](bench::CaseContext& ctx) {
    rec_table = sim::Table(rec_headers);
    double availability[2] = {0.0, 0.0};
    double mttr[2] = {0.0, 0.0};
    double sim_reads = 0.0;
    for (const bool recover : {false, true}) {
      deploy::FleetConfig config = fleet_config(readers, tags, seed, epochs);
      config.faults.outages = ten_percent_outages(config.epoch_duration_s);
      config.recovery.reassign_orphans = recover;
      const deploy::FleetResult result =
          deploy::FleetSimulator(config).run();
      availability[recover ? 1 : 0] = result.fault.availability;
      mttr[recover ? 1 : 0] = result.fault.mttr_mean_s;
      rec_table.add_row(
          {recover ? "on" : "off",
           sim::Table::fmt(result.fault.availability, 4),
           sim::Table::fmt(result.fault.orphaned_tag_s, 2),
           sim::Table::fmt(result.fault.mttr_mean_s * 1e3, 2),
           sim::Table::fmt(result.fault.mttr_max_s * 1e3, 2),
           std::to_string(result.fault.orphan_handoffs),
           sim::Table::fmt(result.stats.coverage(), 3),
           sim::Table::fmt_rate(result.stats.goodput_mean_bps)});
      sim_reads += static_cast<double>(result.sweep.units);
    }
    if (availability[1] < availability[0]) {
      std::fprintf(stderr,
                   "FAIL: recovery availability %.4f < no-recovery %.4f\n",
                   availability[1], availability[0]);
      fail = true;
    }
    if (mttr[1] > mttr[0]) {
      std::fprintf(stderr, "FAIL: recovery MTTR %.3fs > no-recovery %.3fs\n",
                   mttr[1], mttr[0]);
      fail = true;
    }
    ctx.set_units(sim_reads, "sim reads");
  });

  // --- 3. Fault intensity sweep -----------------------------------------
  const std::vector<std::string> sweep_headers = {
      "intensity", "coverage", "goodput_mean", "jain", "avail",
      "mttr_ms", "brownouts", "blocked", "timeouts", "quarantines"};
  sim::Table sweep(sweep_headers);

  harness.add("intensity_sweep", [&](bench::CaseContext& ctx) {
    sweep = sim::Table(sweep_headers);
    double sim_reads = 0.0;
    for (const double intensity : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      deploy::FleetConfig config = fleet_config(readers, tags, seed, epochs);
      config.faults = fault::FaultSchedule::chaos(intensity);
      const deploy::FleetResult result =
          deploy::FleetSimulator(config).run();
      const deploy::FleetStats& s = result.stats;
      const fault::FaultReport& f = result.fault;
      sweep.add_row({sim::Table::fmt(intensity, 2),
                     sim::Table::fmt(s.coverage(), 3),
                     sim::Table::fmt_rate(s.goodput_mean_bps),
                     sim::Table::fmt(s.jain, 3),
                     sim::Table::fmt(f.availability, 4),
                     sim::Table::fmt(f.mttr_mean_s * 1e3, 2),
                     std::to_string(f.tag_brownout_epochs),
                     std::to_string(f.tag_blocked_epochs),
                     std::to_string(f.polls_timed_out),
                     std::to_string(f.quarantines)});
      sim_reads += static_cast<double>(result.sweep.units);
    }
    ctx.set_units(sim_reads, "sim reads");
  });

  const int rc = harness.run();
  if (rc != 0) return rc;

  if (parser.csv()) {
    std::fputs(det_table.to_csv().c_str(), stdout);
    std::fputs(rec_table.to_csv().c_str(), stdout);
    std::fputs(sweep.to_csv().c_str(), stdout);
  } else {
    char title[128];
    std::snprintf(title, sizeof title,
                  "D2 — chaos determinism (%d readers / %d tags, "
                  "chaos(0.5), hw=%d)",
                  readers, tags, hw);
    det_table.print(title);
    rec_table.print("D2 — recovery vs none (10% reader outages)");
    sweep.print("D2 — fault intensity sweep");
  }
  return fail ? 1 : 0;
}
