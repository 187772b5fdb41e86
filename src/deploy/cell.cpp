#include "src/deploy/cell.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/channel/geometry.hpp"
#include "src/mac/polling.hpp"
#include "src/obs/gate.hpp"
#include "src/obs/metrics.hpp"
#include "src/phy/frame.hpp"
#include "src/reader/interference.hpp"

namespace mmtag::deploy {

namespace {

obs::Histogram& poll_cost_us_metric() {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("deploy.cell.poll_us");
  return hist;
}

}  // namespace

ReaderCell::ReaderCell(int index, reader::MmWaveReader reader,
                       const channel::Environment* env,
                       const phy::RateTable* rates, CellConfig config,
                       fault::RecoveryConfig recovery, bool use_cache)
    : index_(index),
      rates_(rates),
      config_(config),
      recovery_(recovery),
      cache_(std::move(reader), env, rates, use_cache) {
  const double facing = cache_.reader().pose().orientation_rad;
  codebook_ = antenna::uniform_codebook(
      facing - config_.sector_half_angle_rad,
      facing + config_.sector_half_angle_rad, config_.beamwidth_deg);
}

CellEpochResult ReaderCell::run_epoch(
    const std::vector<core::MmTag>& tags,
    const std::vector<std::size_t>& tag_indices, const CellPlan& plan,
    double start_s, double duration_s, const fault::EpochFaults& faults,
    sim::Rng& rng) {
  CellEpochResult result;
  result.cell_index = index_;
  result.tags_assigned = static_cast<int>(tag_indices.size());
  result.service.resize(tag_indices.size());

  // Budget left after the outage and the drift guard time, as a fraction
  // of the cell's granted airtime; 0 = reader down for the whole epoch.
  const auto self = static_cast<std::size_t>(index_);
  const double granted_s = duration_s * plan.airtime_share;
  const double avail_s =
      faults.reader_up[self] * granted_s - faults.reader_skew_loss_s[self];
  const double budget_scale =
      granted_s > 0.0 ? std::clamp(avail_s / granted_s, 0.0, 1.0) : 0.0;
  const double budget_s = granted_s * budget_scale;
  if (budget_s <= 0.0) {
    // Reader down for the whole epoch: identify the roster, serve nobody.
    for (std::size_t k = 0; k < tag_indices.size(); ++k) {
      result.service[k].tag_id = tags[tag_indices[k]].id();
    }
    return result;
  }

  // --- Beam assignment over cached link budgets -------------------------
  // Each tag goes to the nearest-boresight beam; its rate is the cached
  // link budget degraded by the coordinator's interference load.
  const std::size_t n = tag_indices.size();
  std::vector<int> tag_beam(n, -1);
  std::vector<std::vector<std::size_t>> beam_members(codebook_.size());
  std::vector<double> beam_rate(codebook_.size(),
                                std::numeric_limits<double>::infinity());
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t gi = tag_indices[k];
    const core::MmTag& tag = tags[gi];
    result.service[k].tag_id = tag.id();
    // A browned-out tag has no charge to answer with, and a quarantined
    // tag is deliberately left alone — neither contends in discovery.
    // Sentences are epoch-granular: each skipped epoch ticks the count
    // down, and the tag re-enters discovery once it reaches zero.
    if (faults.tag_brownout[gi] != 0) continue;
    const auto sentence = quarantine_.find(tag.id());
    if (sentence != quarantine_.end()) {
      if (--sentence->second <= 0) quarantine_.erase(sentence);
      continue;
    }
    const std::size_t best = antenna::nearest_beam(
        codebook_, channel::bearing_rad(cache_.reader().pose().position,
                                        tag.pose().position));
    const reader::LinkReport& link = cache_.link(
        tag, static_cast<int>(best), codebook_[best].boresight_rad);
    const double rate = reader::sinr_limited_rate_bps(
        link.received_power_dbm - faults.tag_loss_db[gi],
        plan.interference_dbm, *rates_);
    if (rate <= 0.0) continue;
    tag_beam[k] = static_cast<int>(best);
    beam_members[best].push_back(k);
    beam_rate[best] = std::min(beam_rate[best], rate);
  }

  // --- Discovery, then polling, on one airtime clock --------------------
  // Airtime is tracked in "on-air seconds"; under TDM the cell only holds
  // the channel an airtime_share of the wall clock, so an airtime instant t
  // maps to absolute fleet time start_s + t / airtime_share.
  const double frame_bits = 2.0 *  // Manchester.
      static_cast<double>(phy::TagFrame::frame_bits(config_.payload_bits));
  const double poll_bits =
      frame_bits + 2.0 * static_cast<double>(mac::kPollOverheadBits);

  double now = 0.0;
  std::vector<std::size_t> discovered;  // Local ks, in read order.

  // Resume the sector scan at the persistent cursor; empty beams cost
  // nothing (no tag responds, the reader moves straight on — same
  // convention as SdmInventory).
  for (std::size_t beams_scanned = 0; beams_scanned < codebook_.size();) {
    if (beam_members[scan_cursor_].empty()) {
      scan_cursor_ = (scan_cursor_ + 1) % codebook_.size();
      ++beams_scanned;
      continue;
    }
    const std::size_t b = scan_cursor_;
    std::vector<std::size_t>& members = beam_members[b];
    const double slot_s = frame_bits / beam_rate[b];
    const mac::AlohaStats aloha = run_framed_aloha(
        static_cast<int>(members.size()), config_.aloha, rng);
    const double dwell_s =
        config_.beam_switch_overhead_s +
        static_cast<double>(aloha.slots_total) * slot_s;
    // Out of airtime mid-scan: the cursor stays on this beam so the next
    // epoch picks up exactly here instead of starving the sector tail.
    if (now + dwell_s > budget_s) break;
    scan_cursor_ = (b + 1) % codebook_.size();
    ++beams_scanned;
    // Aloha resolves a uniform-random subset of the contenders; pick it
    // from the cell's stream so the outcome is reproducible.
    std::shuffle(members.begin(), members.end(), rng);
    now += dwell_s;
    for (int i = 0; i < aloha.tags_read &&
                    i < static_cast<int>(members.size());
         ++i) {
      const std::size_t k = members[static_cast<std::size_t>(i)];
      TagService& service = result.service[k];
      service.read = true;
      service.first_read_s = start_s + now / plan.airtime_share;
      discovered.push_back(k);
    }
  }

  // Serve the discovered tags for the rest of the budget, visiting them
  // sorted by beam to minimise switches.
  std::sort(discovered.begin(), discovered.end(),
            [&](std::size_t a, std::size_t b) {
              if (tag_beam[a] != tag_beam[b]) return tag_beam[a] < tag_beam[b];
              return a < b;
            });
  std::size_t poll_cursor = 0;
  int poll_beam = -1;
  std::bernoulli_distribution poll_success(
      config_.aloha.slot_success_probability);

  // Per-tag retry state: consecutive failures, earliest next attempt
  // (exponential backoff), and an epoch-local quarantined flag mirroring
  // the cross-epoch quarantine_ map.
  std::vector<int> failures(n, 0);
  std::vector<double> retry_at(n, 0.0);
  std::vector<std::uint8_t> benched(n, 0);

  while (!discovered.empty()) {
    // Round-robin over tags that are eligible now; tags backing off are
    // revisited when their retry timer lands, quarantined tags never.
    std::size_t probes = 0;
    std::size_t k = n;
    double next_retry = std::numeric_limits<double>::infinity();
    while (probes < discovered.size()) {
      const std::size_t cand =
          discovered[(poll_cursor + probes) % discovered.size()];
      ++probes;
      if (benched[cand] != 0) continue;
      if (retry_at[cand] > now) {
        next_retry = std::min(next_retry, retry_at[cand]);
        continue;
      }
      k = cand;
      break;
    }
    if (k == n) {
      // Everyone is waiting out a backoff (or quarantined): idle until
      // the earliest retry, or stop when none lands inside the budget.
      if (!(std::isfinite(next_retry) && next_retry <= budget_s)) break;
      now = next_retry;
      continue;
    }
    poll_cursor += probes;
    const std::size_t gi = tag_indices[k];
    // Every poll re-checks the link budget (the tag may have moved since
    // discovery) — this is the fleet hot loop the LinkCache exists for:
    // static geometry answers from cache, moved tags re-trace.
    const auto beam = static_cast<std::size_t>(tag_beam[k]);
    const reader::LinkReport& link = cache_.link(
        tags[gi], tag_beam[k], codebook_[beam].boresight_rad);
    const double rate = reader::sinr_limited_rate_bps(
        link.received_power_dbm - faults.tag_loss_db[gi],
        plan.interference_dbm, *rates_);
    // A blocked link swallows individual queries outright; a dead link
    // answers nothing either. Both consume a timeout.
    bool responded = rate > 0.0;
    if (responded && faults.tag_blocked[gi] != 0) {
      std::uniform_real_distribution<double> uniform(0.0, 1.0);
      responded = uniform(rng) >= faults.block_probability;
    }
    double cost_s = responded ? poll_bits / rate : recovery_.poll_timeout_s;
    if (tag_beam[k] != poll_beam) {
      cost_s += config_.beam_switch_overhead_s;
      poll_beam = tag_beam[k];
    }
    if (now + cost_s > budget_s) break;  // Epoch airtime spent.
    TagService& service = result.service[k];
    ++service.polls;
    if constexpr (obs::kObsEnabled) {
      poll_cost_us_metric().record(
          static_cast<std::uint64_t>(cost_s * 1e6));
    }
    if (responded) {
      failures[k] = 0;
      retry_at[k] = 0.0;
      if (poll_success(rng)) {
        service.delivered_bits += static_cast<double>(config_.payload_bits);
      }
    } else {
      // No response: burn the timeout, back off exponentially, and after
      // the retry budget park the tag in quarantine so a dead link stops
      // taxing everyone else's airtime.
      ++result.polls_timed_out;
      const int fails = ++failures[k];
      if (recovery_.poll_retry_budget > 0 &&
          fails - 1 >= recovery_.poll_retry_budget) {
        benched[k] = 1;
        quarantine_[service.tag_id] = recovery_.quarantine_epochs;
        ++result.quarantines;
      } else {
        // base * 2^(fails-1), exact in binary.
        retry_at[k] = now + cost_s +
                      std::ldexp(recovery_.poll_backoff_base_s, fails - 1);
      }
    }
    now += cost_s;
  }

  result.tags_discovered = static_cast<int>(discovered.size());
  result.airtime_s = std::min(now, budget_s);
  result.utilization = budget_s > 0.0 ? result.airtime_s / budget_s : 0.0;
  return result;
}

}  // namespace mmtag::deploy
