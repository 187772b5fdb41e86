// End-to-end transfer sessions: link budget -> BER -> FER -> ARQ -> goodput.
//
// The number a downstream application actually cares about is not Fig. 7's
// raw rate but the *goodput* of a CRC-checked, retransmitted, fragmented
// transfer. This module chains every layer below it into that figure:
//
//   link power  ->  SNR in the chosen tier   (phys + rate table)
//   SNR         ->  chip BER                 (phy closed forms)
//   BER         ->  frame success prob.      ((1-BER)^chips)
//   FER         ->  ARQ efficiency           (net/arq)
//   framing     ->  header/Manchester tax    (phy/frame + line code)
#pragma once

#include <optional>

#include "src/net/arq.hpp"
#include "src/phy/rate_table.hpp"
#include "src/reader/reader.hpp"

namespace mmtag::net {

/// Bits of sequencing header (12-bit fragment index, 12-bit fragment
/// count) inside each frame payload of a fragmented transfer.
inline constexpr std::size_t kFragmentHeaderBits = 24;

/// Frames go on the air Manchester-coded: two chips per frame bit.
struct SessionConfig {
  ArqConfig arq;
};

/// Everything known about a prospective transfer over one link state.
struct SessionReport {
  double link_rate_bps = 0.0;     ///< Chip rate of the selected tier.
  double snr_db = 0.0;            ///< SNR in the tier bandwidth.
  double chip_error_rate = 0.5;   ///< Raw OOK chip BER at that SNR.
  double frame_success = 0.0;     ///< Probability a whole frame survives.
  double arq_efficiency = 0.0;    ///< Delivered / transmitted frames.
  double goodput_bps = 0.0;       ///< Payload bits per second, all taxes in.
  std::size_t frames_per_payload = 0;

  [[nodiscard]] bool usable() const { return goodput_bps > 0.0; }
};

class TransferSession {
 public:
  TransferSession(phy::RateTable rates, SessionConfig config);

  /// The standard mmTag session: paper rate table, 256-bit MTU, Manchester.
  [[nodiscard]] static TransferSession mmtag_default();

  /// Analyze a transfer of `payload_bits` over the given link state.
  [[nodiscard]] SessionReport analyze(const reader::LinkReport& link,
                                      std::size_t payload_bits) const;

  /// Expected wall-clock time to move `payload_bits` [s]; infinity when
  /// the link is unusable.
  [[nodiscard]] double transfer_time_s(const reader::LinkReport& link,
                                       std::size_t payload_bits) const;

  [[nodiscard]] const SessionConfig& config() const { return config_; }

 private:
  phy::RateTable rates_;
  SessionConfig config_;
};

}  // namespace mmtag::net
