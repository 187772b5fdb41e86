#include "src/fault/schedule.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <random>

#include "src/sim/rng.hpp"

namespace mmtag::fault {

double StuckSwitchModel::penalty_db() const {
  if (stuck_elements <= 0) return 0.0;
  if (stuck_elements >= array_elements) return kDeadLinkDb;
  const double working = static_cast<double>(array_elements - stuck_elements);
  return 20.0 * std::log10(static_cast<double>(array_elements) / working);
}

FaultSchedule FaultSchedule::chaos(double intensity) {
  FaultSchedule schedule;
  if (intensity <= 0.0) return schedule;
  const double i = std::min(intensity, 1.0);
  schedule.outages.rate_hz = 0.4 * i;
  schedule.outages.mean_duration_s = 0.5;
  schedule.brownouts.affected_fraction = 0.2 * i;
  schedule.stuck.affected_fraction = 0.1 * i;
  schedule.stuck.stuck_elements = 1;
  schedule.blockage.enter_rate_hz = 0.5 * i;
  schedule.blockage.mean_burst_s = 0.2;
  schedule.drift.sigma_ppm = 100.0 * i;
  return schedule;
}

namespace {

/// Sort by start, then coalesce overlapping/adjacent intervals.
std::vector<Outage> normalize(std::vector<Outage> outages) {
  std::sort(outages.begin(), outages.end(),
            [](const Outage& a, const Outage& b) {
              if (a.start_s != b.start_s) return a.start_s < b.start_s;
              return a.duration_s < b.duration_s;
            });
  std::vector<Outage> merged;
  for (const Outage& o : outages) {
    if (o.duration_s <= 0.0) continue;
    if (!merged.empty() && o.start_s <= merged.back().end_s()) {
      const double end = std::max(merged.back().end_s(), o.end_s());
      merged.back().duration_s = end - merged.back().start_s;
    } else {
      merged.push_back(o);
    }
  }
  return merged;
}

}  // namespace

std::vector<std::vector<Outage>> build_outage_timelines(
    const ReaderOutageModel& model, std::size_t readers, double duration_s,
    std::uint64_t seed) {
  std::vector<std::vector<Outage>> timelines(readers);
  if (!model.active() || duration_s <= 0.0) return timelines;

  if (model.rate_hz > 0.0 && model.mean_duration_s > 0.0) {
    std::exponential_distribution<double> inter_arrival(model.rate_hz);
    std::exponential_distribution<double> length(1.0 /
                                                 model.mean_duration_s);
    for (std::size_t r = 0; r < readers; ++r) {
      // Reader-private stream: adding a reader never shifts another's
      // timeline (same property the layout generator guarantees for tags).
      sim::Rng rng = sim::make_rng(sim::derive_seed(seed, r));
      double t = inter_arrival(rng);
      while (t < duration_s) {
        const double d = length(rng);
        timelines[r].push_back(Outage{t, std::min(d, duration_s - t)});
        t += d + inter_arrival(rng);
      }
    }
  }
  for (const ScriptedOutage& event : model.scripted) {
    if (event.reader < 0 ||
        static_cast<std::size_t>(event.reader) >= readers) {
      continue;
    }
    const double start = std::max(0.0, event.start_s);
    const double end =
        std::min(duration_s, event.start_s + event.duration_s);
    if (end <= start) continue;
    timelines[static_cast<std::size_t>(event.reader)].push_back(
        Outage{start, end - start});
  }
  for (std::vector<Outage>& timeline : timelines) {
    timeline = normalize(std::move(timeline));
  }
  return timelines;
}

double outage_overlap_s(const std::vector<Outage>& outages, double from_s,
                        double to_s) {
  assert(to_s >= from_s);
  double overlap = 0.0;
  for (const Outage& o : outages) {
    if (o.start_s >= to_s) break;
    overlap +=
        std::max(0.0, std::min(o.end_s(), to_s) - std::max(o.start_s, from_s));
  }
  return overlap;
}

}  // namespace mmtag::fault
