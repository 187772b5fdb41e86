#include "src/deploy/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <stdexcept>
#include <string>

#include "src/channel/geometry.hpp"
#include "src/obs/gate.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/phys/constants.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::deploy {

namespace {

obs::Histogram& cell_epoch_ns_metric() {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("deploy.cell.epoch_ns");
  return hist;
}
obs::Counter& epochs_metric() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("deploy.fleet.epochs");
  return counter;
}
obs::Counter& tags_read_metric() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("deploy.fleet.tags_discovered");
  return counter;
}
obs::Counter& handoffs_metric() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("deploy.fleet.handoffs");
  return counter;
}
obs::Histogram& first_read_us_metric() {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("deploy.fleet.first_read_us");
  return hist;
}
obs::Counter& fault_counter(const char* name) {
  return obs::Registry::instance().counter(name);
}
obs::Histogram& mttr_us_metric() {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("fault.mttr_us");
  return hist;
}
obs::Histogram& recovery_epochs_metric() {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("fault.recovery_epochs");
  return hist;
}
obs::Histogram& availability_ppm_metric() {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("fault.availability_ppm");
  return hist;
}

/// Everything the run's faults and recovery produced (zeros when nothing
/// failed), mirrored into the obs registry so bench --json reports carry
/// MTTR/availability without re-running.
void record_fault_metrics(const fault::FaultReport& report,
                          const std::vector<double>& recoveries_s,
                          double epoch_duration_s) {
  if constexpr (!obs::kObsEnabled) return;
  fault_counter("fault.reader_outages")
      .add(static_cast<std::uint64_t>(report.reader_outages));
  fault_counter("fault.orphan_handoffs")
      .add(static_cast<std::uint64_t>(report.orphan_handoffs));
  fault_counter("fault.brownout_epochs")
      .add(static_cast<std::uint64_t>(report.tag_brownout_epochs));
  fault_counter("fault.blocked_epochs")
      .add(static_cast<std::uint64_t>(report.tag_blocked_epochs));
  fault_counter("fault.polls_timed_out")
      .add(static_cast<std::uint64_t>(report.polls_timed_out));
  fault_counter("fault.quarantines")
      .add(static_cast<std::uint64_t>(report.quarantines));
  fault_counter("fault.cache_evictions").add(report.cache_evictions);
  fault_counter("fault.orphaned_tag_ms")
      .add(static_cast<std::uint64_t>(report.orphaned_tag_s * 1e3));
  for (const double r : recoveries_s) {
    mttr_us_metric().record(static_cast<std::uint64_t>(r * 1e6));
    recovery_epochs_metric().record(static_cast<std::uint64_t>(
        std::ceil(r / epoch_duration_s)));
  }
  availability_ppm_metric().record(
      static_cast<std::uint64_t>(report.availability * 1e6));
}

}  // namespace

void FleetConfig::validate() const {
  layout.validate();
  if (epochs < 1) {
    throw std::invalid_argument("FleetConfig::epochs must be >= 1");
  }
  // run() divides by the run's length, epochs * epoch_duration_s, and a
  // mover steps kMobileSpeedMps * epoch_duration_s.
  if (!(epoch_duration_s > 0.0 && std::isfinite(epochs * epoch_duration_s) &&
        std::isfinite(kMobileSpeedMps * epoch_duration_s))) {
    throw std::invalid_argument(
        "FleetConfig::epoch_duration_s must be > 0, with epochs * "
        "epoch_duration_s and the mobility step finite");
  }
  if (!(mobile_fraction >= 0.0 && mobile_fraction <= 1.0)) {
    throw std::invalid_argument(
        "FleetConfig::mobile_fraction must be in [0, 1]");
  }
  faults.validate("FleetConfig::faults.", layout.readers, "layout.readers");
}

FleetSimulator::FleetSimulator(FleetConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

FleetResult FleetSimulator::run() {
  sim::ThreadPool pool(config_.threads);
  return run(make_layout(config_.layout), pool);
}

FleetResult FleetSimulator::run(FleetLayout layout, sim::ThreadPool& pool) {
  const LayoutConfig& expected = config_.layout;
  const auto reject = [](const char* field) {
    throw std::invalid_argument(std::string("FleetSimulator::run: layout ") +
                                field + " differs from FleetConfig::layout");
  };
  if (layout.width_m != expected.width_m) reject("width_m");
  if (layout.height_m != expected.height_m) reject("height_m");
  if (layout.reader_poses.size() !=
      static_cast<std::size_t>(expected.readers)) {
    reject("reader count");
  }
  if (layout.tags.size() != static_cast<std::size_t>(expected.tags)) {
    reject("tag count");
  }
  MMTAG_OBS_SPAN("deploy.fleet.run");
  const phy::RateTable rates = phy::RateTable::mmtag_standard();
  const std::size_t m = layout.reader_poses.size();
  const std::size_t n = layout.tags.size();

  std::vector<reader::MmWaveReader> readers;
  readers.reserve(m);
  std::vector<ReaderCell> cells;
  cells.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    readers.push_back(
        reader::MmWaveReader::prototype_at(layout.reader_poses[i]));
    cells.emplace_back(static_cast<int>(i), readers.back(),
                       &layout.environment, &rates, config_.cell,
                       config_.use_link_cache);
  }

  const FleetCoordinator coordinator(config_.coordination);
  // Readers are static, so the spectrum/airtime plan holds for the whole
  // run; membership is re-evaluated after every mobility step.
  const std::vector<CellPlan> plans =
      coordinator.plan(readers, layout.environment);
  std::vector<int> tag_cell =
      FleetCoordinator::initial_assignment(layout.tags, readers);

  // Disjoint stream families per concern, all rooted at config_.seed.
  const std::uint64_t cell_base = sim::derive_seed(config_.seed, 0x63656C6C);
  const std::uint64_t move_base = sim::derive_seed(config_.seed, 0x6D6F7665);

  // Chaos: all fault randomness is realized on this thread in
  // begin_epoch, before the parallel fan-out, so thread count cannot
  // influence a single draw. An empty schedule draws nothing and realizes
  // every reader up and every tag lossless.
  fault::FaultEngine engine(config_.faults, m, n, config_.epochs,
                            config_.epoch_duration_s,
                            sim::derive_seed(config_.seed, 0x66617574));
  FleetResult result;
  fault::FaultReport& report = result.fault;
  long orphaned_tag_epochs = 0;
  std::vector<std::uint8_t> live(m, 1);
  // live + backhaul-reachable: the readers that can actually drain
  // inventory this epoch. Identical to `live` without a mesh hook.
  std::vector<std::uint8_t> serviceable(m, 1);

  result.service.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    result.service[t].tag_id = layout.tags[t].id();
  }
  std::vector<CellEpochResult> epoch_results(m);
  int handoffs = 0;
  double utilization_sum = 0.0;
  std::uint64_t reads_total = 0;

  const auto t0 = std::chrono::steady_clock::now();
  for (int e = 0; e < config_.epochs; ++e) {
    MMTAG_OBS_SPAN("deploy.fleet.epoch");
    const fault::EpochFaults& faults = engine.begin_epoch(e);
    for (std::size_t r = 0; r < m; ++r) {
      live[r] = faults.reader_up[r] > 0.0 ? 1 : 0;
      if (faults.reader_restarted[r] != 0) {
        report.cache_evictions += cells[r].on_reader_restarted();
      }
    }
    std::vector<std::uint8_t> reachable;
    if (config_.backhaul_reachable) {
      reachable = config_.backhaul_reachable(e, live);
    }
    for (std::size_t r = 0; r < m; ++r) {
      serviceable[r] =
          (live[r] != 0 && (reachable.empty() || reachable[r] != 0)) ? 1 : 0;
    }
    if (config_.recovery.reassign_orphans) {
      report.orphan_handoffs += FleetCoordinator::reassign_orphans(
          layout.tags, readers, live, reachable, tag_cell);
    }
    for (std::size_t t = 0; t < n; ++t) {
      report.tag_brownout_epochs += faults.tag_brownout[t];
      report.tag_blocked_epochs += faults.tag_blocked[t];
    }
    const std::vector<std::vector<std::size_t>> rosters =
        FleetCoordinator::rosters(tag_cell, m);
    // Tags that spend this epoch bound to a dead (or mesh-partitioned —
    // readable but undrainable) reader are orphaned; with re-handoff
    // enabled this only happens in a total blackout or total partition.
    for (std::size_t r = 0; r < m; ++r) {
      if (serviceable[r] == 0) {
        orphaned_tag_epochs += static_cast<long>(rosters[r].size());
      }
    }
    const double start_s = e * config_.epoch_duration_s;
    pool.parallel_for(m, [&](std::size_t c) {
      // Cell-private stream: scheduling order can never leak into results.
      sim::Rng rng = sim::make_rng(sim::derive_seed(
          cell_base, static_cast<std::uint64_t>(e) * m + c));
      std::uint64_t cell_start_ns = 0;
      if constexpr (obs::kObsEnabled) {
        cell_start_ns = obs::TraceSink::instance().now_ns();
      }
      epoch_results[c] =
          cells[c].run_epoch(layout.tags, rosters[c], plans[c], start_s,
                             config_.epoch_duration_s, faults, rng);
      if constexpr (obs::kObsEnabled) {
        cell_epoch_ns_metric().record(obs::TraceSink::instance().now_ns() -
                                      cell_start_ns);
      }
    });
    if constexpr (obs::kObsEnabled) epochs_metric().add(1);

    // Merge in (cell, roster) order — fixed regardless of which worker
    // finished first.
    for (std::size_t c = 0; c < m; ++c) {
      const CellEpochResult& cell = epoch_results[c];
      for (std::size_t k = 0; k < rosters[c].size(); ++k) {
        const TagService& seen = cell.service[k];
        TagService& merged = result.service[rosters[c][k]];
        merged.delivered_bits += seen.delivered_bits;
        merged.polls += seen.polls;
        merged.first_read_s =
            std::min(merged.first_read_s, seen.first_read_s);
      }
      utilization_sum += cell.airtime_s / config_.epoch_duration_s;
      reads_total += static_cast<std::uint64_t>(cell.tags_discovered);
      report.polls_timed_out += cell.polls_timed_out;
      report.quarantines += cell.quarantines;
    }

    // Backhaul drain point: the mesh layer forwards this epoch's inventory
    // here, after the deterministic merge, on the coordinating thread.
    if (config_.epoch_observer) {
      config_.epoch_observer(e, epoch_results, live);
    }

    if (e + 1 < config_.epochs && config_.mobile_fraction > 0.0) {
      const auto movers = static_cast<std::size_t>(
          std::floor(config_.mobile_fraction * static_cast<double>(n)));
      const double step_m = kMobileSpeedMps * config_.epoch_duration_s;
      for (std::size_t t = 0; t < movers && t < n; ++t) {
        sim::Rng rng = sim::make_rng(sim::derive_seed(
            move_base, static_cast<std::uint64_t>(e) * n + t));
        std::uniform_real_distribution<double> heading(0.0, phys::kTwoPi);
        const double dir = heading(rng);
        channel::Vec2 pos = layout.tags[t].pose().position;
        pos.x = std::clamp(pos.x + step_m * std::cos(dir), kLayoutMarginM,
                           config_.layout.width_m - kLayoutMarginM);
        pos.y = std::clamp(pos.y + step_m * std::sin(dir), kLayoutMarginM,
                           config_.layout.height_m - kLayoutMarginM);
        const std::size_t owner = nearest_reader(layout.reader_poses, pos);
        layout.tags[t].set_pose(core::Pose{
            pos, channel::bearing_rad(
                     pos, layout.reader_poses[owner].position)});
        for (ReaderCell& cell : cells) {
          cell.on_tag_moved(layout.tags[t].id());
        }
      }
      handoffs += FleetCoordinator::reassign(layout.tags, readers, tag_cell);
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const double duration_s = config_.epochs * config_.epoch_duration_s;
  result.stats = summarize_service(result.service, duration_s);
  result.stats.readers = static_cast<int>(m);
  result.stats.handoffs = handoffs;
  result.stats.reader_utilization =
      utilization_sum / static_cast<double>(m * config_.epochs);
  for (const ReaderCell& cell : cells) {
    const LinkCache::Stats& cache = cell.cache().stats();
    result.stats.cache_lookups += cache.lookups;
    result.stats.cache_hits += cache.hits;
    result.stats.raytrace_evals += cache.raytrace_evals;
  }
  if constexpr (obs::kObsEnabled) {
    tags_read_metric().add(reads_total);
    handoffs_metric().add(static_cast<std::uint64_t>(handoffs));
    for (const TagService& tag : result.service) {
      if (tag.read()) {
        first_read_us_metric().record(
            static_cast<std::uint64_t>(tag.first_read_s * 1e6));
      }
    }
  }
  for (const std::vector<fault::Outage>& timeline :
       engine.outage_timelines()) {
    for (const fault::Outage& o : timeline) {
      if (o.start_s >= duration_s) continue;
      ++report.reader_outages;
      report.reader_downtime_s += std::min(o.end_s(), duration_s) - o.start_s;
    }
  }
  report.orphaned_tag_s =
      static_cast<double>(orphaned_tag_epochs) * config_.epoch_duration_s;
  const double tag_epochs =
      static_cast<double>(n) * static_cast<double>(config_.epochs);
  report.availability =
      tag_epochs > 0.0
          ? 1.0 - static_cast<double>(orphaned_tag_epochs) / tag_epochs
          : 1.0;
  const std::vector<double> recoveries =
      engine.recovery_times_s(config_.recovery.reassign_orphans);
  double mttr_sum = 0.0;
  for (const double r : recoveries) {
    mttr_sum += r;
    report.mttr_max_s = std::max(report.mttr_max_s, r);
  }
  report.mttr_mean_s =
      recoveries.empty() ? 0.0
                         : mttr_sum / static_cast<double>(recoveries.size());
  report.stuck_tags = engine.stuck_tag_count();
  record_fault_metrics(report, recoveries, config_.epoch_duration_s);
  result.last_epoch = std::move(epoch_results);
  result.sweep.points = m * static_cast<std::size_t>(config_.epochs);
  result.sweep.threads = pool.size();
  result.sweep.wall_s = wall_s;
  result.sweep.units = reads_total;
  return result;
}

}  // namespace mmtag::deploy
