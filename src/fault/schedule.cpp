#include "src/fault/schedule.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <random>
#include <stdexcept>
#include <string>

#include "src/core/van_atta.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::fault {

double StuckSwitchModel::penalty_db() const {
  if (stuck_elements <= 0) return 0.0;
  const int elements = core::VanAttaArray::mmtag_prototype().size();
  if (stuck_elements >= elements) return kDeadLinkDb;
  const double working = static_cast<double>(elements - stuck_elements);
  return 20.0 * std::log10(static_cast<double>(elements) / working);
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

void FaultSchedule::validate(std::string_view owner, int readers,
                             std::string_view readers_field) const {
  const auto reject = [owner](const std::string& rule) {
    throw std::invalid_argument(std::string(owner) + rule);
  };
  const auto non_negative = [&](double value, const char* field) {
    if (!(std::isfinite(value) && value >= 0.0)) {
      reject(std::string(field) + " must be finite and >= 0");
    }
  };
  const auto fraction = [&](double value, const char* field) {
    if (!(value >= 0.0 && value <= 1.0)) {
      reject(std::string(field) + " must be in [0, 1]");
    }
  };
  non_negative(outages.rate_hz, "outages.rate_hz");
  non_negative(outages.mean_duration_s, "outages.mean_duration_s");
  for (std::size_t i = 0; i < outages.scripted.size(); ++i) {
    const ScriptedOutage& event = outages.scripted[i];
    const std::string at = "outages.scripted[" + std::to_string(i) + "].";
    if (event.reader < 0) reject(at + "reader must be >= 0");
    if (event.reader >= readers) {
      reject(at + "reader must be < " + std::string(readers_field));
    }
    if (!std::isfinite(event.start_s)) reject(at + "start_s must be finite");
    if (!std::isfinite(event.duration_s)) {
      reject(at + "duration_s must be finite");
    }
  }
  fraction(brownouts.affected_fraction, "brownouts.affected_fraction");
  fraction(stuck.affected_fraction, "stuck.affected_fraction");
  if (stuck.stuck_elements < 0) reject("stuck.stuck_elements must be >= 0");
  non_negative(blockage.enter_rate_hz, "blockage.enter_rate_hz");
  non_negative(blockage.mean_burst_s, "blockage.mean_burst_s");
  fraction(blockage.block_probability, "blockage.block_probability");
  non_negative(drift.sigma_ppm, "drift.sigma_ppm");
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
