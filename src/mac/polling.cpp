#include "src/mac/polling.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/channel/geometry.hpp"
#include "src/obs/gate.hpp"
#include "src/obs/metrics.hpp"
#include "src/phy/frame.hpp"
#include "src/phys/units.hpp"

namespace mmtag::mac {

namespace {

obs::Histogram& poll_us_metric() {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("mac.polling.poll_us");
  return hist;
}

}  // namespace

PollingScheduler::PollingScheduler(reader::MmWaveReader reader,
                                   phy::RateTable rates,
                                   PollingConfig config)
    : reader_(std::move(reader)),
      rates_(std::move(rates)),
      config_(config) {}

PollingResult PollingScheduler::run_round(
    const std::vector<core::MmTag>& tags, const channel::Environment& env) {
  PollingResult result;
  result.polls.reserve(tags.size());

  // Visit in bearing order: adjacent polls usually share a beam direction.
  std::vector<std::size_t> order(tags.size());
  std::iota(order.begin(), order.end(), 0u);
  const channel::Vec2 origin = reader_.pose().position;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return channel::bearing_rad(origin, tags[a].pose().position) <
           channel::bearing_rad(origin, tags[b].pose().position);
  });

  double previous_bearing = 1e9;  // Force a switch on the first poll.
  for (const std::size_t index : order) {
    const core::MmTag& tag = tags[index];
    const double bearing =
        channel::bearing_rad(origin, tag.pose().position);
    reader_.steer_to_world(bearing);
    const auto link = reader_.evaluate_link(tag, env, rates_);

    PollRecord record;
    record.tag_id = tag.id();
    record.rate_bps = link.achievable_rate_bps;
    record.reachable = link.achievable_rate_bps > 0.0;
    if (record.reachable) {
      // Manchester doubles the on-air chips, matching SdmInventory.
      const double on_air_bits = 2.0 * static_cast<double>(
          phy::TagFrame::frame_bits(kTagPayloadBits) +
          kPollOverheadBits);
      record.time_s = on_air_bits / link.achievable_rate_bps;
      // Charge a beam switch when the bearing moved more than ~a degree.
      if (std::abs(bearing - previous_bearing) > phys::deg_to_rad(1.0)) {
        record.time_s += config_.beam_switch_overhead_s;
      }
      previous_bearing = bearing;
      ++result.tags_read;
      result.total_time_s += record.time_s;
      if constexpr (obs::kObsEnabled) {
        poll_us_metric().record(
            static_cast<std::uint64_t>(record.time_s * 1e6));
      }
    }
    result.polls.push_back(record);
  }
  return result;
}

}  // namespace mmtag::mac
