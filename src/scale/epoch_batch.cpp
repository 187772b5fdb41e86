#include "src/scale/epoch_batch.hpp"

namespace mmtag::scale {

BatchLinkModel BatchLinkModel::from_budget(
    const phys::BackscatterLinkBudget& budget, const phy::RateTable& rates) {
  BatchLinkModel model;
  model.tier_r2_m2.reserve(rates.tiers().size());
  model.tier_rate_bps.reserve(rates.tiers().size());
  for (const phy::RateTier& tier : rates.tiers()) {
    const double r = budget.max_range_m(rates.required_power_dbm(tier));
    model.tier_r2_m2.push_back(r * r);
    model.tier_rate_bps.push_back(tier.bit_rate_bps);
  }
  // Tiers are sorted by descending rate, i.e. ascending range; the
  // detection limit is the slowest (longest-reach) tier's.
  model.detect_r2_m2 =
      model.tier_r2_m2.empty() ? 0.0 : model.tier_r2_m2.back();
  return model;
}

double BatchLinkModel::rate_for_d2(double d2) const {
  for (std::size_t t = 0; t < tier_r2_m2.size(); ++t) {
    if (d2 < tier_r2_m2[t]) return tier_rate_bps[t];
  }
  return 0.0;
}

const BatchResult& EpochBatcher::evaluate(const TagStore& store,
                                          const std::vector<TagSlot>& slots,
                                          double rx, double ry,
                                          const BatchLinkModel& model) {
  const std::size_t n = slots.size();
  d2_.resize(n);
  rate_.resize(n);
  det_.resize(n);
  result_.detected_count = 0;

  const double* xs = store.xs();
  const double* ys = store.ys();
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[slots[i]] - rx;
    const double dy = ys[slots[i]] - ry;
    const double d2 = dx * dx + dy * dy;
    const bool detected = d2 < model.detect_r2_m2;
    d2_[i] = d2;
    rate_[i] = model.rate_for_d2(d2);
    det_[i] = detected ? 1 : 0;
    result_.detected_count += detected ? 1 : 0;
  }

  result_.count = n;
  result_.d2 = d2_.data();
  result_.rate_bps = rate_.data();
  result_.detected = det_.data();
  return result_;
}

}  // namespace mmtag::scale
