#include "src/net/session.hpp"

#include <cassert>
#include <cmath>
#include <limits>

#include "src/phy/ber.hpp"
#include "src/phy/frame.hpp"

namespace mmtag::net {

TransferSession::TransferSession(phy::RateTable rates, SessionConfig config)
    : rates_(std::move(rates)), config_(config) {
  assert(config_.mtu_payload_bits > kFragmentHeaderBits);
}

TransferSession TransferSession::mmtag_default() {
  return TransferSession(phy::RateTable::mmtag_standard(), SessionConfig{});
}

SessionReport TransferSession::analyze(const reader::LinkReport& link,
                                       std::size_t payload_bits) const {
  SessionReport report;
  const auto tier = rates_.best_tier(link.received_power_dbm);
  if (!tier) return report;  // Unusable link: all-zero report.

  report.link_rate_bps = tier->bit_rate_bps;
  report.snr_db = link.received_power_dbm -
                  rates_.noise().power_dbm(tier->bandwidth_hz);
  report.chip_error_rate = phy::ook_coherent_ber(report.snr_db);

  // Fragment bookkeeping: how many frames and how many on-air chips each.
  const std::size_t chunk_bits =
      config_.mtu_payload_bits - kFragmentHeaderBits;
  report.frames_per_payload =
      payload_bits == 0 ? 1 : (payload_bits + chunk_bits - 1) / chunk_bits;
  const std::size_t frame_bits =
      phy::TagFrame::frame_bits(config_.mtu_payload_bits);
  const std::size_t chips_per_frame = 2 * frame_bits;  // Manchester.

  // A frame survives when every chip does (CRC catches the rest; the tiny
  // undetected-error probability is ignored).
  report.frame_success = std::pow(1.0 - report.chip_error_rate,
                                  static_cast<double>(chips_per_frame));
  report.arq_efficiency =
      arq_goodput_factor(report.frame_success, config_.arq);

  // Goodput: payload bits per on-air chip, times chip rate, times ARQ
  // efficiency.
  const double payload_fraction =
      static_cast<double>(chunk_bits) /
      static_cast<double>(chips_per_frame);
  report.goodput_bps =
      report.link_rate_bps * payload_fraction * report.arq_efficiency;
  return report;
}

double TransferSession::transfer_time_s(const reader::LinkReport& link,
                                        std::size_t payload_bits) const {
  const SessionReport report = analyze(link, payload_bits);
  if (!report.usable()) return std::numeric_limits<double>::infinity();
  return static_cast<double>(payload_bits) / report.goodput_bps;
}

}  // namespace mmtag::net
