#include "src/reader/reader.hpp"

#include <cassert>
#include <vector>

#include "src/channel/propagation.hpp"
#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::reader {

namespace {

/// The TX and RX horns: identical, co-steered. Constant-initialized, so
/// no static initializer elsewhere can see it unbuilt.
constinit const antenna::HornPattern kReaderHorn =
    antenna::HornPattern::mmtag_reader_horn();

/// Loss along `path` one way: propagation plus reflection or blockage [dB].
double one_way_loss_db(const channel::Path& path) {
  return channel::propagation_loss_db(path.length_m, phys::kMmTagCarrierHz) +
         path.excess_loss_db;
}

/// The two-way budget over a path [dBm]. The retrodirective tag sends the
/// energy back along the same route, so every term appears twice except
/// the reader gains (TX on the way out, RX on the way back — identical,
/// co-steered horns, so one `reader_gain_dbi` serves both) and the tag's
/// monostatic reflection gain. evaluate_path and power_bound_dbm both
/// round through this one expression.
double two_way_power_dbm(double reader_gain_dbi, double tag_gain_db,
                         double one_way_db) {
  return kReaderTxPowerDbm + reader_gain_dbi + reader_gain_dbi +
         tag_gain_db - 2.0 * one_way_db - kReaderImplementationLossDb;
}

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

  // The tag's reflective (bit '0') state gives the signal power and its
  // absorptive state the modulation depth, whatever bit it holds now.
  const core::StateGainsDb tag_db =
      tag.monostatic_state_gains_db(path.arrival_rad);

  report.received_power_dbm = two_way_power_dbm(
      gain_dbi(path.departure_rad), tag_db.off_db, one_way_loss_db(path));
  report.modulation_depth_db = tag_db.off_db - tag_db.on_db;
  report.achievable_rate_bps =
      rates.achievable_rate_bps(report.received_power_dbm);
  return report;
}

double MmWaveReader::power_bound_dbm(const core::MmTag& tag,
                                     const channel::Path& path) const {
  // gain_dbi never exceeds the boresight gain (the horn's floor sits below
  // it) and the tag's gain never exceeds its bound; IEEE addition and
  // subtraction are monotone, so neither can the rounded sum.
  return two_way_power_dbm(kReaderHorn.boresight_gain_dbi(),
                           tag.array().off_gain_bound_db(),
                           one_way_loss_db(path));
}

LinkReport MmWaveReader::evaluate_best_path(
    const core::MmTag& tag, std::span<const channel::Path> paths,
    const phy::RateTable& rates) const {
  assert(!paths.empty());
  LinkReport best = evaluate_path(tag, paths.front(), rates);
  assert(power_bound_dbm(tag, paths.front()) >= best.received_power_dbm);
  for (const channel::Path& path : paths.subspan(1)) {
    const double bound = power_bound_dbm(tag, path);
    if (bound < best.received_power_dbm) {
      // Debug and sanitizer builds check that the skipped path loses.
      assert(evaluate_path(tag, path, rates).received_power_dbm <
             best.received_power_dbm);
      continue;
    }
    const LinkReport report = evaluate_path(tag, path, rates);
    assert(bound >= report.received_power_dbm);
    if (report.received_power_dbm > best.received_power_dbm) best = report;
  }
  return best;
}

LinkReport MmWaveReader::evaluate_link(const core::MmTag& tag,
                                       const channel::Environment& env,
                                       const phy::RateTable& rates) const {
  const std::vector<channel::Path> paths =
      channel::trace_paths(env, pose_.position, tag.pose().position);
  return evaluate_best_path(tag, paths, rates);
}

}  // namespace mmtag::reader
