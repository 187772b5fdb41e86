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
#include <unordered_map>
#include <vector>

#include "src/antenna/codebook.hpp"
#include "src/channel/environment.hpp"
#include "src/core/tag.hpp"
#include "src/phy/rate_table.hpp"
#include "src/reader/reader.hpp"

namespace mmtag::mac {

struct PollingConfig {
  /// Addressing overhead per poll: reader query bits at the tag rate.
  std::size_t poll_overhead_bits = 64;
  /// Payload read from each tag per poll [bits].
  std::size_t payload_bits = 96;
  /// Beam switching overhead when the next tag is in a new beam [s].
  double beam_switch_overhead_s = 100e-6;
  /// Retries granted to a tag that fails to answer before it is
  /// quarantined. 0 disables the retry machinery entirely (legacy
  /// behaviour: unreachable tags are skipped for free).
  int retry_budget = 0;
  /// Wait before the first retry; doubles per further attempt. The reader
  /// polls other tags during the wait, so backoff adds latency to the
  /// failing tag without holding the channel.
  double backoff_base_s = 200e-6;
  /// Airtime one unanswered poll consumes (query + listen window) [s].
  double poll_timeout_s = 50e-6;
  /// Rounds a quarantined tag sits out before being re-tried.
  int quarantine_rounds = 1;
};

struct PollRecord {
  std::uint32_t tag_id = 0;
  double rate_bps = 0.0;
  double time_s = 0.0;  ///< Time spent on this tag (overhead + payload).
  bool reachable = false;
  int attempts = 1;          ///< Polls sent (1 + retries consumed).
  bool quarantined = false;  ///< Skipped: serving a quarantine sentence.
  /// Backoff gaps the failing tag waited out (spent polling other tags —
  /// latency for this tag, never channel time).
  double backoff_s = 0.0;
};

struct PollingResult {
  std::vector<PollRecord> polls;
  int tags_read = 0;
  double total_time_s = 0.0;
  long polls_timed_out = 0;  ///< Unanswered polls that burned a timeout.
  long quarantines = 0;      ///< Tags newly quarantined this round.

  [[nodiscard]] double aggregate_throughput_bps(
      std::size_t payload_bits) const;
};

class PollingScheduler {
 public:
  PollingScheduler(reader::MmWaveReader reader, phy::RateTable rates,
                   PollingConfig config);

  /// One polling round over `tags` (assumed already discovered): the reader
  /// steers at each tag's bearing in order, skipping unreachable ones.
  /// Tags are visited sorted by bearing so beam switches are minimal.
  /// Per-tag service latency is recorded to the obs histogram
  /// "mac.polling.poll_us", so fleet-level repair times are derivable from
  /// a bench JSON report without re-running.
  ///
  /// `responsive` (optional, indexed like `tags`) marks tags that answer
  /// when polled; a 0 entry models a blocked or browned-out tag. With a
  /// positive retry_budget a non-answering tag consumes
  /// (1 + retry_budget) poll timeouts (retries backed off exponentially)
  /// and is then quarantined for quarantine_rounds rounds.
  [[nodiscard]] PollingResult run_round(
      const std::vector<core::MmTag>& tags, const channel::Environment& env,
      const std::vector<std::uint8_t>* responsive = nullptr);

  [[nodiscard]] const PollingConfig& config() const { return config_; }
  /// Tags currently serving a quarantine sentence.
  [[nodiscard]] std::size_t quarantined_count() const {
    return quarantine_.size();
  }

 private:
  reader::MmWaveReader reader_;
  phy::RateTable rates_;
  PollingConfig config_;
  /// tag_id -> rounds remaining. Never populated when retry_budget == 0.
  std::unordered_map<std::uint32_t, int> quarantine_;
};

}  // namespace mmtag::mac
