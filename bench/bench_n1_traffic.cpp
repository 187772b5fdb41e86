// Network N1: iperf-style traffic over the fleet — goodput, fairness, p99.
//
// The end-to-end claim behind "batteryless wireless networking at gigabit
// speeds" is a *network* under load, not one link. This bench drives
// thousands of concurrent SR-ARQ flows through the traffic engine
// (src/net/traffic) and verifies:
//   1. traffic determinism — a chaos(0.5)-faulted run produces a
//      bit-identical report fingerprint at every thread count (hard
//      failure on mismatch);
//   2. the window pays — under a ~10% reader-outage schedule with
//      scripted incidents pinned over the active window, selective
//      repeat must beat the stop-and-wait baseline on aggregate goodput
//      (hard failure otherwise);
//   3. a rate-adaptation sweep — adaptive vs open-loop-pinned tiers
//      across chaos intensities, quoting goodput, Jain fairness, p99
//      latency and tier switches for EXPERIMENTS.md.
//
// Standard harness flags plus --flows, --packets, --readers, --tags.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_main.hpp"
#include "src/fault/schedule.hpp"
#include "src/net/traffic.hpp"
#include "src/sim/parallel.hpp"
#include "src/sim/table.hpp"

namespace {

using namespace mmtag;

net::TrafficConfig traffic_config(int readers, int tags, int flows,
                                  int packets, std::uint64_t seed) {
  net::TrafficConfig config;
  config.layout.width_m = 16.0;
  config.layout.height_m = 10.0;
  config.layout.readers = readers;
  config.layout.tags = tags;
  config.layout.seed = seed;
  config.flows = flows;
  config.packets_per_flow = packets;
  config.seed = seed;
  return config;
}

/// ~10% expected reader downtime (rate * mean_duration = 0.1) plus one
/// scripted incident per reader staggered over the first milliseconds —
/// the window where the flows are actually on the air — so the SR-vs-S&W
/// margin is exercised at any seed.
fault::ReaderOutageModel ten_percent_outages(int readers) {
  fault::ReaderOutageModel outages;
  outages.rate_hz = 0.25;
  outages.mean_duration_s = 0.4;
  for (int r = 0; r < readers; ++r) {
    outages.scripted.push_back(
        fault::ScriptedOutage{r, 0.0005 * r, 0.001});
  }
  return outages;
}

}  // namespace

int main(int argc, char** argv) {
  int readers = 4;
  int tags = 200;
  int flows = 1000;
  int packets = 64;
  bench::Parser parser("n1_traffic",
                       "iperf-style flows over the fleet: determinism, "
                       "SR vs stop-and-wait, rate adaptation");
  parser.add_int("--readers", &readers, "reader count");
  parser.add_int("--tags", &tags, "tag count");
  parser.add_int("--flows", &flows, "concurrent flows");
  parser.add_int("--packets", &packets, "packets per flow");
  if (!parser.parse(argc, argv)) return parser.exit_code();
  const std::uint64_t seed = parser.options().seed;
  try {
    traffic_config(readers, tags, flows, packets, seed).validate();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  bench::Harness harness(parser.options());
  bool fail = false;

  // --- 1. Traffic determinism across thread counts ----------------------
  const int hw = sim::default_thread_count();
  const std::vector<int> grid = bench::thread_grid({1, 3, 4, hw}, true);

  const std::vector<std::string> det_headers = {
      "threads", "wall_s", "served", "goodput_total", "jain", "p99_ms",
      "report_fp"};
  sim::Table det_table(det_headers);

  harness.add("traffic_determinism", [&](bench::CaseContext& ctx) {
    det_table = sim::Table(det_headers);
    double transmissions = 0.0;
    const auto run = [&](int threads) -> std::vector<std::uint64_t> {
      net::TrafficConfig config =
          traffic_config(readers, tags, flows, packets, seed);
      config.faults = fault::FaultSchedule::chaos(0.5);
      config.threads = threads;
      const net::TrafficReport report = net::TrafficEngine(config).run();
      const std::uint64_t fp = net::fingerprint(report);
      det_table.add_row({std::to_string(threads),
                         sim::Table::fmt(report.sweep.wall_s, 3),
                         std::to_string(report.flows_served),
                         sim::Table::fmt_rate(report.goodput_total_bps),
                         sim::Table::fmt(report.jain, 4),
                         sim::Table::fmt(report.latency_p99_s * 1e3, 3),
                         bench::hex64(fp)});
      transmissions += static_cast<double>(report.sweep.units);
      return {fp};
    };
    if (!bench::check_thread_invariance("traffic run", grid, run)) {
      fail = true;
    }
    ctx.set_units(transmissions, "packet tx");
  });

  // --- 2. Selective repeat vs stop-and-wait under 10% outages -----------
  const std::vector<std::string> arq_headers = {
      "arq", "delivered", "dropped", "goodput_total", "goodput_mean",
      "jain", "p50_ms", "p99_ms", "retx", "efficiency"};
  sim::Table arq_table(arq_headers);

  harness.add("sr_vs_stop_and_wait", [&](bench::CaseContext& ctx) {
    arq_table = sim::Table(arq_headers);
    double goodput[2] = {0.0, 0.0};
    double transmissions = 0.0;
    for (const bool selective : {false, true}) {
      net::TrafficConfig config =
          traffic_config(readers, tags, flows, packets, seed);
      config.faults.outages = ten_percent_outages(readers);
      config.arq.max_attempts_per_packet = 1 << 20;
      config.mode = selective ? net::ArqMode::kSelectiveRepeat
                              : net::ArqMode::kStopAndWait;
      const net::TrafficReport report = net::TrafficEngine(config).run();
      goodput[selective ? 1 : 0] = report.goodput_total_bps;
      const double efficiency =
          report.transmissions > 0
              ? static_cast<double>(report.packets_delivered) /
                    static_cast<double>(report.transmissions)
              : 0.0;
      arq_table.add_row(
          {selective ? "selective-repeat" : "stop-and-wait",
           std::to_string(report.packets_delivered),
           std::to_string(report.packets_dropped),
           sim::Table::fmt_rate(report.goodput_total_bps),
           sim::Table::fmt_rate(report.goodput_mean_bps),
           sim::Table::fmt(report.jain, 4),
           sim::Table::fmt(report.latency_p50_s * 1e3, 3),
           sim::Table::fmt(report.latency_p99_s * 1e3, 3),
           std::to_string(report.transmissions - report.packets_delivered),
           sim::Table::fmt(efficiency, 4)});
      transmissions += static_cast<double>(report.sweep.units);
    }
    if (goodput[1] <= goodput[0]) {
      std::fprintf(stderr,
                   "FAIL: selective repeat goodput %.3e <= stop-and-wait "
                   "%.3e under 10%% outages\n",
                   goodput[1], goodput[0]);
      fail = true;
    }
    ctx.set_units(transmissions, "packet tx");
  });

  // --- 3. Rate adaptation across fault intensity ------------------------
  const std::vector<std::string> rate_headers = {
      "intensity", "adapt", "delivered", "goodput_mean", "jain", "p99_ms",
      "switches", "delivery"};
  sim::Table rate_table(rate_headers);

  harness.add("rate_adaptation", [&](bench::CaseContext& ctx) {
    rate_table = sim::Table(rate_headers);
    double transmissions = 0.0;
    for (const double intensity : {0.0, 0.5, 1.0}) {
      for (const bool adapt : {false, true}) {
        net::TrafficConfig config =
            traffic_config(readers, tags, flows, packets, seed);
        config.faults = fault::FaultSchedule::chaos(intensity);
        config.adapt_rate = adapt;
        const net::TrafficReport report = net::TrafficEngine(config).run();
        rate_table.add_row({sim::Table::fmt(intensity, 2),
                            adapt ? "on" : "off",
                            std::to_string(report.packets_delivered),
                            sim::Table::fmt_rate(report.goodput_mean_bps),
                            sim::Table::fmt(report.jain, 4),
                            sim::Table::fmt(report.latency_p99_s * 1e3, 3),
                            std::to_string(report.rate_switches),
                            sim::Table::fmt(report.delivery_ratio(), 4)});
        transmissions += static_cast<double>(report.sweep.units);
      }
    }
    ctx.set_units(transmissions, "packet tx");
  });

  const int rc = harness.run();
  if (rc != 0) return rc;

  if (parser.csv()) {
    std::fputs(det_table.to_csv().c_str(), stdout);
    std::fputs(arq_table.to_csv().c_str(), stdout);
    std::fputs(rate_table.to_csv().c_str(), stdout);
  } else {
    char title[128];
    std::snprintf(title, sizeof title,
                  "N1 — traffic determinism (%d flows / %d tags / %d "
                  "readers, chaos(0.5), hw=%d)",
                  flows, tags, readers, hw);
    det_table.print(title);
    arq_table.print("N1 — selective repeat vs stop-and-wait (10% outages)");
    rate_table.print("N1 — rate adaptation vs fault intensity");
  }
  return fail ? 1 : 0;
}
