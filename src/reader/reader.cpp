#include "src/reader/reader.hpp"

#include <algorithm>
#include <cassert>

#include "src/channel/propagation.hpp"
#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::reader {

namespace {

/// The TX and RX horns: identical, co-steered. Constant-initialized, so
/// no static initializer elsewhere can see it unbuilt.
constinit const antenna::HornPattern kReaderHorn =
    antenna::HornPattern::mmtag_reader_horn();

}  // namespace

MmWaveReader::MmWaveReader(core::Pose pose)
    : pose_(pose), beam_world_rad_(pose.orientation_rad) {}

MmWaveReader MmWaveReader::prototype_at(core::Pose pose) {
  return MmWaveReader(pose);
}

void MmWaveReader::steer_to_world(double world_rad) {
  beam_world_rad_ = world_rad;
}

double MmWaveReader::gain_dbi(double world_rad) const {
  return kReaderHorn.gain_dbi(world_rad - beam_world_rad_);
}

LinkReport MmWaveReader::evaluate_path(const core::MmTag& tag,
                                       const channel::Path& path,
                                       const phy::RateTable& rates) const {
  LinkReport report;
  report.path = path;

  // Two-way budget over this path: the retrodirective tag sends the energy
  // back along the same route, so every term appears twice except the
  // reader gains (TX on the way out, RX on the way back — identical horns)
  // and the tag's monostatic reflection gain.
  const double one_way_loss_db =
      channel::propagation_loss_db(path.length_m, phys::kMmTagCarrierHz) +
      path.excess_loss_db;
  const double reader_tx = gain_dbi(path.departure_rad);
  const double reader_rx = gain_dbi(path.departure_rad);

  // The tag's reflective (bit '0') state gives the signal power and its
  // absorptive state the modulation depth, whatever bit it holds now.
  const core::StateGainsDb tag_db =
      tag.monostatic_state_gains_db(path.arrival_rad);

  report.received_power_dbm = kReaderTxPowerDbm + reader_tx + reader_rx +
                              tag_db.off_db - 2.0 * one_way_loss_db -
                              kReaderImplementationLossDb;
  report.modulation_depth_db = tag_db.off_db - tag_db.on_db;
  report.achievable_rate_bps =
      rates.achievable_rate_bps(report.received_power_dbm);
  return report;
}

LinkReport MmWaveReader::evaluate_link(const core::MmTag& tag,
                                       const channel::Environment& env,
                                       const phy::RateTable& rates) const {
  const std::vector<LinkReport> reports =
      evaluate_all_paths(tag, env, rates);
  assert(!reports.empty());
  return reports.front();
}

std::vector<LinkReport> MmWaveReader::evaluate_all_paths(
    const core::MmTag& tag, const channel::Environment& env,
    const phy::RateTable& rates) const {
  const std::vector<channel::Path> paths =
      channel::trace_paths(env, pose_.position, tag.pose().position);
  std::vector<LinkReport> reports;
  reports.reserve(paths.size());
  for (const channel::Path& path : paths) {
    reports.push_back(evaluate_path(tag, path, rates));
  }
  std::sort(reports.begin(), reports.end(),
            [](const LinkReport& a, const LinkReport& b) {
              return a.received_power_dbm > b.received_power_dbm;
            });
  return reports;
}

}  // namespace mmtag::reader
