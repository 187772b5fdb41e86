// Collision-free polling: the MAC upgrade the paper's Sec. 9 hints at
// ("the directionality property of mmWave may provide opportunities for
// more efficient protocols").
//
// After one Aloha inventory has *discovered* the population, the reader
// knows every tag's beam and id — from then on it can poll each tag
// directly: steer, address, read, next. No collisions, no empty slots, at
// the cost of a per-poll addressing preamble. This module schedules those
// polling rounds and reports the throughput so the ablation bench can
// compare discovery-mode Aloha against steady-state polling.
#pragma once

#include <cstdint>
#include <vector>

#include "src/antenna/codebook.hpp"
#include "src/channel/environment.hpp"
#include "src/core/tag.hpp"
#include "src/phy/rate_table.hpp"
#include "src/reader/reader.hpp"

namespace mmtag::mac {

/// Addressing overhead per poll: reader query bits at the tag rate. The
/// fleet's deploy::ReaderCell charges the same preamble.
inline constexpr std::size_t kPollOverheadBits = 64;
/// Payload a tag delivers per read, in an inventory slot or a poll: an
/// EPC-96-style identifier [bits]. The fleet's cells deliver the same.
inline constexpr std::size_t kTagPayloadBits = 96;
/// Airtime of one electronic beam switch [s]: the default overhead of the
/// inventory and polling configs, and what a fleet cell charges.
inline constexpr double kBeamSwitchS = 100e-6;

struct PollingConfig {
  /// Beam switching overhead when the next tag is in a new beam [s].
  double beam_switch_overhead_s = kBeamSwitchS;
};

struct PollRecord {
  std::uint32_t tag_id = 0;
  double rate_bps = 0.0;
  double time_s = 0.0;  ///< Time spent on this tag (overhead + payload).
  bool reachable = false;
};

struct PollingResult {
  std::vector<PollRecord> polls;
  int tags_read = 0;
  double total_time_s = 0.0;
};

class PollingScheduler {
 public:
  PollingScheduler(reader::MmWaveReader reader, phy::RateTable rates,
                   PollingConfig config);

  /// One polling round over `tags` (assumed already discovered): the reader
  /// steers at each tag's bearing in order, skipping unreachable ones.
  /// Tags are visited sorted by bearing so beam switches are minimal.
  /// Per-tag service latency is recorded to the obs histogram
  /// "mac.polling.poll_us", so a bench JSON report carries the poll-time
  /// distribution without re-running. Retry, backoff and quarantine of
  /// unanswered polls live in the fleet's deploy::ReaderCell.
  [[nodiscard]] PollingResult run_round(const std::vector<core::MmTag>& tags,
                                        const channel::Environment& env);

 private:
  reader::MmWaveReader reader_;
  phy::RateTable rates_;
  PollingConfig config_;
};

}  // namespace mmtag::mac
