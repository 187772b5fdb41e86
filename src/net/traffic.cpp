#include "src/net/traffic.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <utility>

#include "src/channel/geometry.hpp"
#include "src/deploy/coordinator.hpp"
#include "src/deploy/fleet.hpp"
#include "src/obs/gate.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/stats.hpp"
#include "src/reader/reader.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::net {

namespace {

obs::Counter& flows_metric() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("net.traffic.flows");
  return counter;
}
obs::Counter& delivered_metric() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("net.traffic.packets_delivered");
  return counter;
}
obs::Counter& retx_metric() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("net.traffic.retransmissions");
  return counter;
}
obs::Counter& stalls_metric() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("net.traffic.pool_stalls");
  return counter;
}
obs::Histogram& goodput_metric() {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("net.traffic.flow_goodput_kbps");
  return hist;
}
obs::Histogram& latency_metric() {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("net.traffic.latency_us");
  return hist;
}

/// True when `t_s` falls inside one of the (sorted, disjoint) outages.
bool in_outage(const std::vector<fault::Outage>& outages, double t_s) {
  for (const fault::Outage& o : outages) {
    if (t_s < o.start_s) break;
    if (t_s < o.end_s()) return true;
  }
  return false;
}

/// Per-flow Gilbert-Elliott blockage realized as bad-state intervals over
/// [0, horizon): alternating exponential good/bad dwells, drawn up front
/// from the flow's stream so the draw order is independent of how the
/// ARQ session interleaves.
std::vector<fault::Outage> draw_blockage_bursts(
    const fault::BlockageModel& model, double horizon_s,
    sim::Rng& rng) {
  std::vector<fault::Outage> bursts;
  if (!model.active()) return bursts;
  std::exponential_distribution<double> good(model.enter_rate_hz);
  std::exponential_distribution<double> bad(1.0 / model.mean_burst_s);
  double t = 0.0;
  while (t < horizon_s) {
    t += good(rng);  // Good dwell.
    if (t >= horizon_s) break;
    const double dwell = bad(rng);
    bursts.push_back({t, std::min(dwell, horizon_s - t)});
    t += dwell;
  }
  return bursts;
}

}  // namespace

std::uint64_t fingerprint(const TrafficReport& report) {
  obs::Fnv1a hasher;
  hasher.mix_u64(static_cast<std::uint64_t>(report.flows_offered));
  hasher.mix_u64(static_cast<std::uint64_t>(report.flows_admitted));
  hasher.mix_u64(static_cast<std::uint64_t>(report.flows_shed));
  hasher.mix_u64(static_cast<std::uint64_t>(report.flows_served));
  hasher.mix_double(report.discovery_coverage);
  hasher.mix_u64(static_cast<std::uint64_t>(report.packets_offered));
  hasher.mix_u64(static_cast<std::uint64_t>(report.packets_delivered));
  hasher.mix_u64(static_cast<std::uint64_t>(report.packets_dropped));
  hasher.mix_u64(static_cast<std::uint64_t>(report.transmissions));
  hasher.mix_u64(static_cast<std::uint64_t>(report.duplicate_receives));
  hasher.mix_u64(static_cast<std::uint64_t>(report.pool_stalls));
  hasher.mix_u64(static_cast<std::uint64_t>(report.rate_switches));
  hasher.mix_double(report.goodput_total_bps);
  hasher.mix_double(report.goodput_mean_bps);
  hasher.mix_double(report.jain);
  hasher.mix_double(report.latency_p50_s);
  hasher.mix_double(report.latency_p95_s);
  hasher.mix_double(report.latency_p99_s);
  hasher.mix_double(report.elapsed_max_s);
  for (const FlowResult& flow : report.per_flow) {
    hasher.mix_u64(static_cast<std::uint64_t>(flow.arq.packets_delivered));
    hasher.mix_double(flow.goodput_bps);
    hasher.mix_double(flow.arq.elapsed_s);
  }
  return hasher.digest();
}

void TrafficConfig::validate() const {
  if (flows < 0) {
    throw std::invalid_argument("TrafficConfig::flows must be >= 0");
  }
  if (packets_per_flow < 0) {
    throw std::invalid_argument(
        "TrafficConfig::packets_per_flow must be >= 0");
  }
  if (!(std::isfinite(horizon_s) && horizon_s > 0.0)) {
    throw std::invalid_argument(
        "TrafficConfig::horizon_s must be finite and > 0");
  }
  if (pool_packets < 1) {
    throw std::invalid_argument("TrafficConfig::pool_packets must be >= 1");
  }
  if (!(ack_bits >= 0.0)) {
    throw std::invalid_argument("TrafficConfig::ack_bits must be >= 0");
  }
  if (discovery_epochs < 0) {
    throw std::invalid_argument(
        "TrafficConfig::discovery_epochs must be >= 0");
  }
  if (!(std::isfinite(epoch_duration_s) && epoch_duration_s > 0.0)) {
    throw std::invalid_argument(
        "TrafficConfig::epoch_duration_s must be finite and > 0");
  }
  rate.validate("TrafficConfig::rate.");
  layout.validate();
  arq.validate();
  faults.validate("TrafficConfig::faults.", layout.readers,
                  "layout.readers");
}

TrafficEngine::TrafficEngine(TrafficConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

TrafficReport TrafficEngine::run() {
  TrafficReport report;
  report.flows_offered = config_.flows;

  // --- Admission: geometry, link budgets, discovery roster. -------------
  deploy::FleetLayout layout = deploy::make_layout(config_.layout);
  const phy::RateTable rates = phy::RateTable::mmtag_standard();
  const std::size_t m = layout.reader_poses.size();
  const std::size_t n = layout.tags.size();

  std::vector<reader::MmWaveReader> readers;
  readers.reserve(m);
  for (const core::Pose& pose : layout.reader_poses) {
    readers.push_back(reader::MmWaveReader::prototype_at(pose));
  }
  const std::vector<int> tag_cell =
      deploy::FleetCoordinator::initial_assignment(layout.tags, readers);
  const deploy::FleetCoordinator coordinator({});
  const std::vector<deploy::CellPlan> plans =
      coordinator.plan(readers, layout.environment);

  sim::ThreadPool pool(config_.threads);

  // Link budget per tag from its serving reader, beam steered at the tag
  // (the polling idiom). Reader copies keep the fan-out side-effect free.
  const std::vector<reader::LinkReport> links = sim::parallel_sweep(
      pool, n, [&](std::size_t t) {
        reader::MmWaveReader reader =
            readers[static_cast<std::size_t>(tag_cell[t])];
        reader.steer_to_world(channel::bearing_rad(
            reader.pose().position, layout.tags[t].pose().position));
        return reader.evaluate_link(layout.tags[t], layout.environment,
                                    rates);
      });

  // Discovery pass: the fleet inventories the layout (under the same
  // fault schedule) and flows are admitted only to tags it read. The
  // layout moves into it: nothing below reads the layout again.
  std::vector<std::uint8_t> eligible_mask(n, 1);
  if (config_.discovery_epochs > 0) {
    deploy::FleetConfig fleet_config;
    fleet_config.layout = config_.layout;
    fleet_config.epochs = config_.discovery_epochs;
    fleet_config.epoch_duration_s = config_.epoch_duration_s;
    fleet_config.seed = sim::derive_seed(config_.seed, 0x64697363);  // disc
    fleet_config.threads = config_.threads;
    fleet_config.faults = config_.faults;
    const deploy::FleetResult discovery =
        deploy::FleetSimulator(fleet_config).run(std::move(layout));
    report.discovery_coverage = discovery.stats.coverage();
    for (std::size_t t = 0; t < n; ++t) {
      eligible_mask[t] = discovery.service[t].read ? 1 : 0;
    }
  }
  std::vector<std::size_t> eligible;
  eligible.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    if (eligible_mask[t] != 0) eligible.push_back(t);
  }
  if (eligible.empty() || config_.flows == 0) return report;
  const auto flow_count = static_cast<std::size_t>(config_.flows);
  report.flows_admitted = config_.flows;

  // --- Shared-medium model. ---------------------------------------------
  // A reader TDM-shares the band across cells (plan airtime share) and
  // round-robins its airtime across the flows it serves, so every on-air
  // duration is dilated by flows-per-reader / airtime-share.
  std::vector<long> flows_per_reader(m, 0);
  std::vector<std::size_t> flow_tag(flow_count);
  for (std::size_t f = 0; f < flow_count; ++f) {
    flow_tag[f] = eligible[f % eligible.size()];
    ++flows_per_reader[static_cast<std::size_t>(tag_cell[flow_tag[f]])];
  }

  // Reader outage timelines over the traffic window, one stream per
  // reader, realized before the fan-out (thread count can't touch them).
  const std::vector<std::vector<fault::Outage>> outages =
      fault::build_outage_timelines(
          config_.faults.outages, m, config_.horizon_s,
          sim::derive_seed(config_.seed, 0x6F757467));  // outg

  const std::uint64_t flow_base =
      sim::derive_seed(config_.seed, 0x666C6F77);  // flow

  const double chips_per_bit = 2.0;  // Manchester line coding.
  const double packet_bits =
      static_cast<double>((kSrHeaderBytes + config_.arq.payload_bytes) * 8);
  const auto packet_chips =
      static_cast<std::size_t>(packet_bits * chips_per_bit);

  SrArqConfig arq_config = config_.arq;
  if (config_.mode == ArqMode::kStopAndWait) arq_config.window = 1;

  // --- The flows. --------------------------------------------------------
  report.per_flow = sim::parallel_monte_carlo(
      pool, flow_count, flow_base,
      [&](sim::Rng& rng, std::size_t f) {
        FlowResult flow;
        flow.flow = static_cast<int>(f);
        flow.tag = flow_tag[f];
        flow.reader = tag_cell[flow.tag];
        const double power_dbm = links[flow.tag].received_power_dbm;
        flow.received_power_dbm = power_dbm;
        const auto r = static_cast<std::size_t>(flow.reader);
        const double share = plans[r].airtime_share /
                             static_cast<double>(flows_per_reader[r]);
        assert(share > 0.0);

        AckRateController controller(&rates, config_.rate, power_dbm);
        flow.initial_rate_bps = controller.rate_bps();

        // On-air timing at a tier: OOK runs one chip per symbol at
        // bandwidth/2 symbols per second; the flow only owns `share` of
        // the wall clock, so every duration stretches by 1/share.
        const auto timing_for = [&](const phy::RateTier& tier) {
          const double symbol_rate = tier.bandwidth_hz / 2.0;
          SrArqTiming timing;
          timing.packet_time_s =
              packet_bits * chips_per_bit / symbol_rate / share;
          timing.ack_time_s =
              config_.ack_bits * chips_per_bit / symbol_rate / share;
          timing.ack_timeout_s = timing.packet_time_s + timing.ack_time_s;
          return timing;
        };

        const std::vector<fault::Outage> bursts = draw_blockage_bursts(
            config_.faults.blockage, config_.horizon_s, rng);
        const std::vector<fault::Outage>& downtime = outages[r];

        // Outside an outage the success probability depends only on the
        // tier and on whether a blockage burst is up, so the closed form
        // runs once per (tier, blocked) pair instead of per transmission.
        std::vector<double> success_memo(
            2 * rates.tiers().size(),
            std::numeric_limits<double>::quiet_NaN());
        const ChannelFn channel = [&](double now_s) {
          if (in_outage(downtime, now_s)) return 0.0;
          const bool blocked = in_outage(bursts, now_s);
          double& success =
              success_memo[2 * controller.tier_index() + (blocked ? 1 : 0)];
          if (std::isnan(success)) {
            double rx_dbm = power_dbm;
            double scale = 1.0;
            if (blocked) {
              rx_dbm -= config_.faults.blockage.attenuation_db;
              scale = 1.0 - config_.faults.blockage.block_probability;
            }
            success = scale * packet_success_probability(
                                  rates, controller.tier(), rx_dbm,
                                  packet_chips);
          }
          return success;
        };
        AdaptFn adapt;
        if (config_.adapt_rate) {
          adapt = [&](const SrRoundFeedback& feedback) {
            controller.on_ack_round(feedback.round_delivered,
                                    feedback.round_transmitted);
            return timing_for(controller.tier());
          };
        }

        PacketPool buffers(config_.pool_packets, config_.arq.payload_bytes,
                           kSrHeaderBytes);
        SrArqSession session(arq_config, timing_for(controller.tier()));
        flow.arq = session.run(config_.packets_per_flow, channel, rng,
                               &buffers, adapt);
        flow.final_rate_bps = controller.rate_bps();
        flow.rate_switches = controller.switch_count();
        flow.goodput_bps =
            flow.arq.goodput_bps(config_.arq.payload_bytes * 8);
        return flow;
      },
      &report.sweep);

  // --- Aggregation, flow order. ------------------------------------------
  // Latency percentiles select over the flows' own latency vectors: no
  // pooled copy, no sort.
  std::vector<double> goodputs;
  goodputs.reserve(flow_count);
  std::vector<std::span<const double>> latencies;
  latencies.reserve(flow_count);
  for (const FlowResult& flow : report.per_flow) {
    report.packets_offered += flow.arq.packets_offered;
    report.packets_delivered += flow.arq.packets_delivered;
    report.packets_dropped += flow.arq.packets_dropped;
    report.transmissions += flow.arq.transmissions;
    report.duplicate_receives += flow.arq.duplicate_receives;
    report.pool_stalls += flow.arq.pool_stalls;
    report.rate_switches += flow.rate_switches;
    if (flow.arq.packets_delivered > 0) ++report.flows_served;
    report.goodput_total_bps += flow.goodput_bps;
    report.elapsed_max_s = std::max(report.elapsed_max_s, flow.arq.elapsed_s);
    goodputs.push_back(flow.goodput_bps);
    latencies.emplace_back(flow.arq.delivery_latency_s);
  }
  report.goodput_mean_bps =
      report.flows_admitted > 0
          ? report.goodput_total_bps /
                static_cast<double>(report.flows_admitted)
          : 0.0;
  report.jain = obs::jain_fairness(goodputs);
  if (report.packets_delivered > 0) {  // One latency per delivery.
    const std::vector<double> latency =
        obs::percentiles(latencies, {50.0, 95.0, 99.0});
    report.latency_p50_s = latency[0];
    report.latency_p95_s = latency[1];
    report.latency_p99_s = latency[2];
  }
  report.sweep.units = static_cast<std::uint64_t>(report.transmissions);

  if constexpr (obs::kObsEnabled) {
    flows_metric().add(static_cast<std::uint64_t>(report.flows_admitted));
    delivered_metric().add(
        static_cast<std::uint64_t>(report.packets_delivered));
    retx_metric().add(static_cast<std::uint64_t>(
        report.transmissions - report.packets_delivered));
    stalls_metric().add(static_cast<std::uint64_t>(report.pool_stalls));
    // Histograms fill locally and publish once: one atomic add per
    // touched bucket instead of three per recorded value.
    obs::Histogram::Snapshot goodput_kbps;
    obs::Histogram::Snapshot latency_us;
    for (const FlowResult& flow : report.per_flow) {
      goodput_kbps.record(static_cast<std::uint64_t>(flow.goodput_bps / 1e3));
      for (const double latency_s : flow.arq.delivery_latency_s) {
        latency_us.record(static_cast<std::uint64_t>(latency_s * 1e6));
      }
    }
    goodput_metric().add(goodput_kbps);
    latency_metric().add(latency_us);
  }
  return report;
}

}  // namespace mmtag::net
