// Closed-loop rate adaptation from ACK/NAK history.
//
// phy::RateController adapts on raw received-power samples — an open-loop
// rule that trusts the link budget. A traffic session has a better signal:
// the block-ACKs it is already paying for. This controller fuses both,
// Minstrel-style: the delivery ratio of recent ACK rounds decides when the
// current tier is failing (downshift on the evidence, whatever the SNR
// claims), while the SNR gate from the existing rate table decides when a
// faster tier is even worth probing (upshift only after a dwell of clean
// rounds AND link margin above the faster tier's threshold). Pure integer/
// double state machine, no RNG — a deterministic component of the traffic
// engine's per-flow simulations.
#pragma once

#include <cstddef>

#include "src/phy/rate_table.hpp"

namespace mmtag::net {

/// Link margin above the faster tier's power threshold an upshift into it
/// requires [dB].
inline constexpr double kUpshiftSnrMarginDb = 3.0;
/// Weight of one ACK round in the delivery-ratio EWMA.
inline constexpr double kAckHistoryAlpha = 0.25;
/// EWMA delivery ratio that forces a downshift to the next slower tier
/// (the ACKs say the tier is failing — SNR opinions are ignored on the way
/// down; blockage does not show up in a link budget).
inline constexpr double kDownshiftDeliveryRatio = 0.5;
/// EWMA delivery ratio required to arm an upshift.
inline constexpr double kUpshiftDeliveryRatio = 0.9;
/// Consecutive qualifying rounds before the upshift fires.
inline constexpr int kUpshiftDwellRounds = 3;

class AckRateController {
 public:
  /// `table` tiers are consulted in their canonical descending-rate
  /// order. The controller starts at the best SNR-feasible tier for
  /// `received_power_dbm` (the open-loop pick), or the slowest tier when
  /// even that is out of reach (the ACK loop will keep it there). Throws
  /// std::invalid_argument when `table` is null or has no tier.
  AckRateController(const phy::RateTable* table, double received_power_dbm);

  /// Feed one block-ACK round: `delivered` of `transmitted` packets got
  /// through. Returns true when the tier changed.
  bool on_ack_round(int delivered, int transmitted);

  /// Tier currently in force (index into table->tiers(), 0 = fastest).
  [[nodiscard]] std::size_t tier_index() const { return tier_; }
  [[nodiscard]] const phy::RateTier& tier() const;
  [[nodiscard]] double rate_bps() const { return tier().bit_rate_bps; }
  [[nodiscard]] int switch_count() const { return switches_; }

 private:
  const phy::RateTable* table_;
  double power_dbm_;
  std::size_t tier_ = 0;
  double ewma_ = 1.0;
  int dwell_ = 0;
  int switches_ = 0;
};

/// P(one packet of `on_air_chips` chips survives) for a tag received at
/// `received_power_dbm` in `tier`'s bandwidth: SNR against the table's
/// noise model through the coherent-OOK BER closed form, chip
/// independence across the packet. The per-packet coin every net-layer
/// simulation flips.
[[nodiscard]] double packet_success_probability(const phy::RateTable& table,
                                                const phy::RateTier& tier,
                                                double received_power_dbm,
                                                std::size_t on_air_chips);

}  // namespace mmtag::net
