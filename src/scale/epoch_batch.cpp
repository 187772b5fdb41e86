#include "src/scale/epoch_batch.hpp"

#include "src/kern/kern.hpp"

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
  sx_.resize(n);
  sy_.resize(n);
  d2_.resize(n);
  rate_.assign(n, 0.0);
  det_.resize(n);
  tier_hit_.resize(n);

  const double* xs = store.xs();
  const double* ys = store.ys();
  for (std::size_t i = 0; i < n; ++i) {
    sx_[i] = xs[slots[i]];
    sy_[i] = ys[slots[i]];
  }

  const kern::Kernels& k = kern::dispatch();
  k.squared_distance(sx_.data(), sy_.data(), rx, ry, n, d2_.data());
  k.threshold_below(d2_.data(), n, model.detect_r2_m2, det_.data());
  result_.detected_count = k.count_below(d2_.data(), n, model.detect_r2_m2);

  // Tier sweep, slowest (longest range) to fastest: each pass overwrites
  // the rate where the tier's squared range is cleared, so the survivor
  // is the fastest achievable tier. The rates are copied constants — no
  // per-element arithmetic — so this matches rate_for_d2 bit-for-bit.
  for (std::size_t t = model.tier_r2_m2.size(); t-- > 0;) {
    k.threshold_below(d2_.data(), n, model.tier_r2_m2[t], tier_hit_.data());
    const double rate = model.tier_rate_bps[t];
    for (std::size_t i = 0; i < n; ++i) {
      if (tier_hit_[i]) rate_[i] = rate;
    }
  }

  result_.count = n;
  result_.x = sx_.data();
  result_.y = sy_.data();
  result_.d2 = d2_.data();
  result_.rate_bps = rate_.data();
  result_.detected = det_.data();
  return result_;
}

}  // namespace mmtag::scale
