// Hysteresis rate adaptation over a time-varying backscatter link.
//
// Fig. 7's rate tiers assume a static bench. A mobile tag's received power
// crosses tier thresholds constantly; switching the reader bandwidth on
// every raw sample would thrash (each switch costs a reconfiguration
// dead-time). This controller adds the two standard guards: an up/down
// hysteresis margin and a dwell count before upgrading.
#pragma once

#include "src/phy/rate_table.hpp"

namespace mmtag::phy {

class RateController {
 public:
  struct Params {
    /// Consecutive qualifying observations required before an upgrade.
    int up_dwell_count = 3;
  };

  RateController(RateTable table, Params params);

  /// Feed one received-power observation [dBm]; returns the rate now in
  /// force [bit/s] (0 when no tier is sustainable).
  double observe_dbm(double received_power_dbm);

  /// Rate currently in force [bit/s].
  [[nodiscard]] double current_rate_bps() const { return current_rate_bps_; }

  /// Number of tier switches so far (the thrash metric).
  [[nodiscard]] int switch_count() const { return switch_count_; }

  [[nodiscard]] const Params& params() const { return params_; }

 private:
  RateTable table_;
  Params params_;
  double current_rate_bps_ = 0.0;
  int qualifying_streak_ = 0;
  int switch_count_ = 0;
};

}  // namespace mmtag::phy
