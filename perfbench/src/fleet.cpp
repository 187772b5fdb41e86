// fleet_traffic: net::TrafficEngine in the shape of bench N1 (SR-ARQ,
// adaptive rate, FaultSchedule::chaos(0.5)), about 10x N1's default size.
//
// One closed-loop operation is one TrafficEngine::run. The gate pins the
// report fingerprint at 1 and 4 threads; every timed run must repeat it.
//
// Traced runs cycle through three kinds. A replayed run is preceded by
// replays of the two admission stages the engine performs internally:
// MmWaveReader::evaluate_link for every tag (must match each flow's
// received power) and the FleetSimulator discovery pass (must match
// TrafficReport::discovery_coverage). The replays warm the caches for the
// run after them, so that run is checked but not timed. The next run is
// timed inside the net.run_ms span and the one after it runs plain; their
// difference is the cost of tracing. The flow phase is the engine's own
// TrafficReport::sweep.wall_s, marked program-reported.
#include <optional>
#include <vector>

#include "common.hpp"
#include "src/channel/geometry.hpp"
#include "src/deploy/coordinator.hpp"
#include "src/deploy/fleet.hpp"
#include "src/deploy/layout.hpp"
#include "src/fault/schedule.hpp"
#include "src/net/traffic.hpp"
#include "src/phy/rate_table.hpp"
#include "src/reader/reader.hpp"
#include "src/sim/rng.hpp"

namespace perfbench {

namespace {

using namespace mmtag;

/// Constructions timed together per set-up sample (one takes ~0.1 us).
constexpr int kSetupBatch = 256;
/// Set-up samples taken before each timed run.
constexpr int kSetupSamplesPerRun = 16;

net::TrafficConfig traffic_config(std::uint64_t seed, int threads) {
  net::TrafficConfig config;
  config.layout.width_m = 32.0;
  config.layout.height_m = 20.0;
  config.layout.readers = 16;
  config.layout.tags = 2000;
  config.layout.seed = sim::derive_seed(seed, 0x6C61796FULL);  // "layo"
  config.flows = 4000;
  config.packets_per_flow = 256;
  config.mode = net::ArqMode::kSelectiveRepeat;
  config.adapt_rate = true;
  config.faults = fault::FaultSchedule::chaos(0.5);
  config.seed = sim::derive_seed(seed, 0x74726166ULL);  // "traf"
  config.threads = threads;
  return config;
}

/// The engine's discovery pass, configured exactly as TrafficEngine::run
/// configures it.
deploy::FleetConfig discovery_config(const net::TrafficConfig& config) {
  deploy::FleetConfig fleet;
  fleet.layout = config.layout;
  fleet.epochs = config.discovery_epochs;
  fleet.epoch_duration_s = config.epoch_duration_s;
  fleet.seed = sim::derive_seed(config.seed, 0x64697363);  // "disc"
  fleet.threads = config.threads;
  fleet.faults = config.faults;
  return fleet;
}

/// Per-tag link budget from the serving reader, beam steered at the tag.
std::vector<reader::LinkReport> evaluate_links(const net::TrafficConfig& config,
                                               sim::ThreadPool& pool, Tracer* tracer) {
  const deploy::FleetLayout layout = deploy::make_layout(config.layout);
  const phy::RateTable rates = phy::RateTable::mmtag_standard();
  std::vector<reader::MmWaveReader> readers;
  readers.reserve(layout.reader_poses.size());
  for (const core::Pose& pose : layout.reader_poses) {
    readers.push_back(reader::MmWaveReader::prototype_at(pose));
  }
  const std::vector<int> tag_cell =
      deploy::FleetCoordinator::initial_assignment(layout.tags, readers);
  Tracer::Scope span(tracer, "reader.link_eval_ms");
  return sim::parallel_sweep(pool, layout.tags.size(), [&](std::size_t t) {
    reader::MmWaveReader reader = readers[static_cast<std::size_t>(tag_cell[t])];
    reader.steer_to_world(channel::bearing_rad(reader.pose().position,
                                               layout.tags[t].pose().position));
    return reader.evaluate_link(layout.tags[t], layout.environment, rates);
  });
}

}  // namespace

void run_fleet(const Options& options, sim::ThreadPool& pool, Report& report,
               Tracer* tracer) {
  const net::TrafficConfig config = traffic_config(options.seed, kThreads);

  net::TrafficEngine engine(config);

  // Set-up: engine construction. Samples are taken between timed runs,
  // once the process is warm, so the first milliseconds do not decide them.
  std::vector<double> setup_samples;
  std::vector<std::optional<net::TrafficEngine>> batch(kSetupBatch);
  const auto sample_setup = [&] {
    for (int s = 0; s < kSetupSamplesPerRun; ++s) {
      for (auto& slot : batch) slot.reset();
      const auto t0 = Clock::now();
      for (auto& slot : batch) slot.emplace(config);
      setup_samples.push_back(seconds_since(t0) / kSetupBatch);
    }
  };

  // Gate (untimed): the report fingerprint is equal at 1 and 4 threads.
  const std::uint64_t serial =
      net::fingerprint(net::TrafficEngine(traffic_config(options.seed, 1)).run());
  const std::uint64_t digest = net::fingerprint(engine.run());
  report.check(serial == digest, "fleet gate: net::fingerprint equal at 1 and 4 threads");
  say("gate  traffic fingerprint  threads=1 %s  threads=%d %s", hex64(serial).c_str(),
      kThreads, hex64(digest).c_str());

  struct Runs {
    std::vector<double> run_s;
    double cpu_s = 0.0;
    double transmissions = 0.0;
  };
  // One plain run: timed, no span.
  const auto plain_run = [&](Runs& out, std::uint64_t op) {
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    const net::TrafficReport result = engine.run();
    out.run_s.push_back(seconds_since(t0));
    out.cpu_s += process_cpu_s() - cpu0;
    out.transmissions += static_cast<double>(result.transmissions);
    report.check(net::fingerprint(result) == digest,
                 "fleet run " + std::to_string(op) + " reproduces the gate fingerprint");
  };

  if (tracer == nullptr) {
    Runs run;
    const auto start = Clock::now();
    for (std::uint64_t op = 0; op == 0 || seconds_since(start) < options.seconds; ++op) {
      sample_setup();
      plain_run(run, op);
    }
    const double tx_per_s = run.transmissions / sum(run.run_s);
    const double setup_s = median(setup_samples);
    const double rss = peak_rss_mib();
    say("end-to-end (untraced, %zu engine runs)", run.run_s.size());
    say("  %-18s %14.9f s      (median of %zu batches of %d TrafficEngine "
        "constructions, per construction)",
        "setup_s", setup_s, setup_samples.size(), kSetupBatch);
    say("  %-18s %14.2f MiB", "peak_rss_mb", rss);
    say("  %-18s %14.0f tx/s   -> work_per_s", "packet_tx_per_s", tx_per_s);
    say("  %-18s %14.4f s      -> op_ms_p50", "traffic_run_s", median(run.run_s));
    say("  %-18s %14.4f s      (process CPU per run, all threads)", "traffic_cpu_s",
        run.cpu_s / static_cast<double>(run.run_s.size()));
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", rss);
    report.set("work_per_s", tx_per_s);
    report.set("op_ms_p50", 1e3 * median(run.run_s));
    return;
  }

  // Traced run: cycles of a replayed run (replays, then the run, checked
  // but not timed), a spanned run and a plain run. The spanned and the plain
  // run both follow a real run, so they differ only by the span and by host
  // drift within a second.
  const deploy::FleetConfig discovery = discovery_config(config);
  const auto start = Clock::now();
  Runs plain;
  double replays = 0.0;
  double ops = 0.0;
  net::TrafficReport last;
  deploy::FleetResult last_discovery;
  for (std::uint64_t op = 0;
       op < 3 || op % 3 != 0 || seconds_since(start) < options.seconds; ++op) {
    tracer->set_op(op);
    if (op % 3 == 2) {
      plain_run(plain, op);
      continue;
    }
    if (op % 3 == 0) {
      const std::vector<reader::LinkReport> links = evaluate_links(config, pool, tracer);
      {
        Tracer::Scope span(tracer, "deploy.discovery_ms");
        last_discovery = deploy::FleetSimulator(discovery).run();
      }
      const net::TrafficReport result = engine.run();
      bool links_match = true;
      for (const net::FlowResult& flow : result.per_flow) {
        links_match = links_match && flow.tag < links.size() &&
                      flow.received_power_dbm == links[flow.tag].received_power_dbm;
      }
      report.check(links_match, "fleet replay " + std::to_string(op) +
                                    ": evaluate_link power equals every flow's");
      report.check(last_discovery.stats.coverage() == result.discovery_coverage,
                   "fleet replay " + std::to_string(op) +
                       ": discovery coverage equals TrafficReport::discovery_coverage");
      report.check(net::fingerprint(result) == digest,
                   "fleet run " + std::to_string(op) + " reproduces the gate fingerprint");
      replays += 1.0;
      continue;
    }
    {
      Tracer::Scope span(tracer, "net.run_ms");
      last = engine.run();
    }
    tracer->add_reported("net.flows_ms", last.sweep.wall_s);
    report.check(net::fingerprint(last) == digest,
                 "fleet run " + std::to_string(op) + " reproduces the gate fingerprint");
    ops += 1.0;
  }

  const double run_s = tracer->total_s("net.run_ms") / ops;
  const double link_s = tracer->total_s("reader.link_eval_ms") / replays;
  const double discovery_s = tracer->total_s("deploy.discovery_ms") / replays;
  const double flows_s = tracer->total_s("net.flows_ms") / ops;
  const double rest_s = run_s - link_s - discovery_s - flows_s;
  say("per-layer (traced, %.0f replayed, %.0f spanned, %zu plain engine runs; spans "
      "are per-run means)", replays, ops, plain.run_s.size());
  say("  %-26s %10.4f ms  %5.1f%%  replay of evaluate_link per tag", "reader.link_eval_ms",
      1e3 * link_s, 100.0 * link_s / run_s);
  say("  %-26s %10.4f ms  %5.1f%%  replay of FleetSimulator::run (discovery)",
      "deploy.discovery_ms", 1e3 * discovery_s, 100.0 * discovery_s / run_s);
  say("  %-26s %10.4f ms  %5.1f%%  program-reported TrafficReport::sweep.wall_s",
      "net.flows_ms", 1e3 * flows_s, 100.0 * flows_s / run_s);
  say("  %-26s %10.4f ms  %5.1f%%  derived: layout, admission, aggregation, sort",
      "net.rest_ms", 1e3 * rest_s, 100.0 * rest_s / run_s);
  say("  %-26s %10.4f ms          span around TrafficEngine::run", "net.run_ms",
      1e3 * run_s);

  const double transmissions = static_cast<double>(last.transmissions);
  const double delivered = static_cast<double>(last.packets_delivered);
  say("  %-26s %10.0f      delivered %.0f (arq_efficiency %.4f, delivery_ratio %.4f)",
      "net.transmissions", transmissions, delivered, delivered / transmissions,
      last.delivery_ratio());
  say("  %-26s %10ld      pool_stalls %ld, rate_switches %d, flows_shed %d",
      "net.duplicates", last.duplicate_receives, last.pool_stalls, last.rate_switches,
      last.flows_shed);
  say("  %-26s %10.4f      cache_hit_ratio %.4f, raytrace_evals %llu", "deploy.coverage",
      last_discovery.stats.coverage(), last_discovery.stats.cache_hit_rate(),
      static_cast<unsigned long long>(last_discovery.stats.raytrace_evals));

  report.set("net.run_ms", 1e3 * run_s);
  report.set("reader.link_eval_ms", 1e3 * link_s);
  report.set("deploy.discovery_ms", 1e3 * discovery_s);
  report.set("net.flows_ms", 1e3 * flows_s);
  report.set("net.rest_ms", 1e3 * rest_s);
  report.set("net.transmissions", transmissions);
  report.set("net.delivered", delivered);
  report.set("net.arq_efficiency", delivered / transmissions);
  report.set("net.delivery_ratio", last.delivery_ratio());
  report.set("net.duplicates", static_cast<double>(last.duplicate_receives));
  report.set("net.pool_stalls", static_cast<double>(last.pool_stalls));
  report.set("net.rate_switches", last.rate_switches);
  report.set("net.flows_shed", last.flows_shed);
  report.set("deploy.coverage", last_discovery.stats.coverage());
  report.set("deploy.cache_hit_ratio", last_discovery.stats.cache_hit_rate());
  report.set("deploy.raytrace_evals",
             static_cast<double>(last_discovery.stats.raytrace_evals));

  TraceSummary summary;
  summary.parent_s = run_s;
  summary.covered_s = link_s + discovery_s + flows_s;
  summary.ops = ops;
  summary.traced_op_s = run_s;
  summary.untraced_op_s = sum(plain.run_s) / static_cast<double>(plain.run_s.size());
  summary.pool_efficiency = plain.cpu_s / (sum(plain.run_s) * kThreads);
  report_trace_summary(summary, report);
  (void)measure_stream(pool, report);
}

}  // namespace perfbench
