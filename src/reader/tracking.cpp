#include "src/reader/tracking.hpp"

#include <cassert>

#include "src/phys/units.hpp"

namespace mmtag::reader {

namespace {

constexpr double kAlpha = 0.6;  ///< Position-correction gain.
constexpr double kBeta = 0.2;   ///< Rate-correction gain.
/// Probe spacing around the prediction [rad] (one beamwidth apart).
constexpr double kProbeOffsetRad = 0.15;

}  // namespace

BeamTracker::BeamTracker(BeamScanner scanner,
                         std::vector<antenna::Beam> full_codebook,
                         Params params)
    : scanner_(std::move(scanner)),
      full_codebook_(std::move(full_codebook)),
      params_(params) {
  assert(!full_codebook_.empty());
  assert(params_.miss_budget >= 1);
}

double BeamTracker::predicted_bearing_rad(double t_s) const {
  return bearing_rad_ + bearing_rate_rad_s_ * (t_s - last_fix_t_s_);
}

std::optional<LinkReport> BeamTracker::probe(double bearing_rad,
                                             const core::MmTag& tag,
                                             const channel::Environment& env,
                                             const phy::RateTable& rates,
                                             sim::Rng& /*rng*/) {
  ++probes_;
  scanner_.reader().steer_to_world(bearing_rad);
  const LinkReport link = scanner_.reader().evaluate_link(tag, env, rates);
  if (link.achievable_rate_bps <= 0.0) return std::nullopt;
  return link;
}

void BeamTracker::update_filter(double t_s, double measured_bearing_rad) {
  const double dt = t_s - last_fix_t_s_;
  const double predicted = predicted_bearing_rad(t_s);
  const double residual =
      phys::wrap_angle_rad(measured_bearing_rad - predicted);
  bearing_rad_ = phys::wrap_angle_rad(predicted + kAlpha * residual);
  if (dt > 1e-9) {
    bearing_rate_rad_s_ += kBeta * residual / dt;
  }
  last_fix_t_s_ = t_s;
}

LinkReport BeamTracker::step(double t_s, const core::MmTag& tag,
                             const channel::Environment& env,
                             const phy::RateTable& rates,
                             sim::Rng& rng) {
  if (locked_ && misses_ < params_.miss_budget) {
    // Cheap mode: predicted beam and its two neighbours, best wins.
    const double predicted = predicted_bearing_rad(t_s);
    std::optional<LinkReport> best;
    double best_bearing = predicted;
    for (const double offset :
         {0.0, -kProbeOffsetRad, kProbeOffsetRad}) {
      const double bearing = predicted + offset;
      const auto link = probe(bearing, tag, env, rates, rng);
      if (link && (!best ||
                   link->received_power_dbm > best->received_power_dbm)) {
        best = link;
        best_bearing = bearing;
      }
    }
    if (best) {
      misses_ = 0;
      update_filter(t_s, best_bearing);
      return *best;
    }
    ++misses_;
    LinkReport miss;
    return miss;  // Rate 0: this step is lost, but the lock persists.
  }

  // Re-acquisition: full codebook sweep.
  ++full_scans_;
  const ScanResult scan = scanner_.scan(full_codebook_, tag, env, rates, rng);
  probes_ += scan.probes_used;
  if (!scan.found_tag()) {
    locked_ = false;
    LinkReport miss;
    return miss;
  }
  const antenna::Beam winner =
      scan.probes[static_cast<std::size_t>(scan.best_beam_index)].beam;
  locked_ = true;
  misses_ = 0;
  // (Re)initialize the filter at the winning beam with zero rate.
  bearing_rad_ = winner.boresight_rad;
  bearing_rate_rad_s_ = 0.0;
  last_fix_t_s_ = t_s;
  // Return the link through the winning beam.
  scanner_.reader().steer_to_world(winner.boresight_rad);
  return scanner_.reader().evaluate_link(tag, env, rates);
}

}  // namespace mmtag::reader
