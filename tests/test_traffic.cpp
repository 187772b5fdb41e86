// Rate adaptation + traffic engine: ACK-history tier control, chaos
// recovery, and bit-identical aggregates at any thread count.
#include "src/net/traffic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/net/rate_control.hpp"
#include "src/obs/gate.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/stats.hpp"
#include "src/phy/rate_table.hpp"

namespace mmtag::net {
namespace {

TEST(AckRateController, StartsAtTheBestFeasibleTier) {
  const phy::RateTable table = phy::RateTable::mmtag_standard();
  // Strong link: open-loop pick is the fastest tier.
  const AckRateController strong(&table,
                                 table.required_power_dbm(table.tiers()[0]));
  EXPECT_EQ(strong.tier_index(), 0u);
  // A link below even the slowest threshold still gets the slowest tier —
  // the ACK loop, not the constructor, decides whether it works.
  const AckRateController weak(&table, -200.0);
  EXPECT_EQ(weak.tier_index(), table.tiers().size() - 1);
  EXPECT_EQ(weak.rate_bps(),
            table.tiers().back().bit_rate_bps);
}

TEST(AckRateController, DownshiftsOnDeliveryCollapseRegardlessOfSnr) {
  const phy::RateTable table = phy::RateTable::mmtag_standard();
  // SNR says the fastest tier is fine; the ACKs will say otherwise
  // (blockage does not show up in a link budget).
  AckRateController controller(&table, 0.0);
  ASSERT_EQ(controller.tier_index(), 0u);
  int rounds = 0;
  while (controller.tier_index() == 0 && rounds < 100) {
    controller.on_ack_round(0, 8);
    ++rounds;
  }
  EXPECT_EQ(controller.tier_index(), 1u);
  EXPECT_GE(rounds, 2);  // EWMA smoothing: one bad round is not enough.
  EXPECT_EQ(controller.switch_count(), 1);
  // Keep failing: it walks down to the slowest tier and stays there.
  for (int i = 0; i < 100; ++i) controller.on_ack_round(0, 8);
  EXPECT_EQ(controller.tier_index(), table.tiers().size() - 1);
}

TEST(AckRateController, UpshiftNeedsDwellAndLinkMargin) {
  const phy::RateTable table = phy::RateTable::mmtag_standard();
  // A weak link starts on the slowest tier.
  AckRateController weak(&table, -200.0);
  const std::size_t slowest = table.tiers().size() - 1;
  ASSERT_EQ(weak.tier_index(), slowest);

  // Perfect rounds but no link margin: never upshifts.
  for (int i = 0; i < 20; ++i) weak.on_ack_round(8, 8);
  EXPECT_EQ(weak.tier_index(), slowest);

  // A link with margin to spare over the next tier up, driven down to the
  // slowest tier by failed rounds (blockage no link budget sees): the
  // upshift arms, then fires only after a dwell of three clean rounds.
  const phy::RateTier& faster = table.tiers()[slowest - 1];
  AckRateController strong(
      &table, table.required_power_dbm(faster) + kUpshiftSnrMarginDb + 1.0);
  ASSERT_LT(strong.tier_index(), slowest);
  while (strong.tier_index() < slowest) strong.on_ack_round(0, 8);
  EXPECT_FALSE(strong.on_ack_round(8, 8));
  EXPECT_FALSE(strong.on_ack_round(8, 8));
  EXPECT_TRUE(strong.on_ack_round(8, 8));
  EXPECT_EQ(strong.tier_index(), slowest - 1);
}

TEST(AckRateController, RejectsAMissingRateTable) {
  try {
    const AckRateController controller(nullptr, 0.0);
    ADD_FAILURE() << "accepted a missing rate table";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("AckRateController::table"),
              std::string::npos)
        << e.what();
  }
}

TEST(AckRateController, PacketSuccessProbabilityTracksPowerAndLength) {
  const phy::RateTable table = phy::RateTable::mmtag_standard();
  const double threshold = table.required_power_dbm(table.tiers()[0]);
  const double strong = packet_success_probability(table, 0,
                                                   threshold + 10.0, 640);
  const double weak = packet_success_probability(table, 0,
                                                 threshold - 10.0, 640);
  EXPECT_GT(strong, weak);
  EXPECT_GT(strong, 0.99);
  const double longer = packet_success_probability(table, 0,
                                                   threshold + 10.0, 6400);
  EXPECT_LT(longer, strong);  // More chips, more ways to die.
}

/// Small but non-trivial fleet the traffic tests share.
TrafficConfig small_config() {
  TrafficConfig config;
  config.layout.width_m = 8.0;
  config.layout.height_m = 6.0;
  config.layout.readers = 2;
  config.layout.tags = 12;
  config.layout.seed = 5;
  config.flows = 24;
  config.packets_per_flow = 8;
  config.arq.window = 16;
  config.arq.max_attempts_per_packet = 64;
  config.arq.ack_loss_probability = 0.01;
  config.seed = 33;
  config.threads = 1;
  return config;
}

TEST(TrafficEngine, AccountingIsConsistent) {
  TrafficConfig config = small_config();
  TrafficEngine engine(config);
  const TrafficReport report = engine.run();

  EXPECT_EQ(report.flows_offered, config.flows);
  EXPECT_EQ(report.flows_admitted, config.flows);
  EXPECT_GT(report.discovery_coverage, 0.0);
  ASSERT_EQ(report.per_flow.size(),
            static_cast<std::size_t>(config.flows));
  EXPECT_EQ(report.packets_offered,
            static_cast<long>(config.flows) * config.packets_per_flow);
  EXPECT_EQ(report.packets_delivered + report.packets_dropped,
            report.packets_offered);
  EXPECT_GT(report.flows_served, 0);
  EXPECT_GT(report.goodput_total_bps, 0.0);
  EXPECT_GT(report.jain, 0.0);
  EXPECT_LE(report.jain, 1.0);
  EXPECT_GT(report.latency_p99_s, 0.0);
  EXPECT_GE(report.latency_p99_s, report.latency_p50_s);
  EXPECT_GE(report.transmissions, report.packets_delivered);
  // Every flow rode a real link on a real reader.
  for (const FlowResult& flow : report.per_flow) {
    EXPECT_GE(flow.reader, 0);
    EXPECT_LT(flow.reader, config.layout.readers);
    EXPECT_GT(flow.received_power_dbm, -300.0);
    EXPECT_GT(flow.initial_rate_bps, 0.0);
  }
  EXPECT_NE(fingerprint(report), 0u);
}

TEST(TrafficEngine, AggregatesAreBitIdenticalAcrossThreadCounts) {
  // {1, 4, hardware} worker threads must produce byte-for-byte the same
  // report — the repo's core determinism discipline, now at the net layer.
  std::vector<std::uint64_t> digests;
  for (const int threads : {1, 4, 0}) {
    TrafficConfig config = small_config();
    config.faults = fault::FaultSchedule::chaos(0.5);
    config.threads = threads;
    const TrafficReport report = TrafficEngine(config).run();
    digests.push_back(fingerprint(report));
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
}

TEST(TrafficEngine, RecoversAllInFlightPacketsAcrossChaos) {
  // chaos(0.5) outage/blockage schedule, plus a scripted outage pinned
  // over the start of the run so every flow on reader 0 is guaranteed to
  // live through a blackout. With the retry budget uncapped-ish, SR must
  // re-deliver every in-flight packet once the chaos clears.
  TrafficConfig config = small_config();
  config.faults = fault::FaultSchedule::chaos(0.5);
  config.faults.outages.scripted.push_back({0, 0.0, 0.001});
  config.arq.max_attempts_per_packet = 1 << 20;
  config.discovery_epochs = 0;  // Admission decoupled from discovery luck.
  TrafficEngine engine(config);
  const TrafficReport report = engine.run();

  EXPECT_EQ(report.packets_dropped, 0);
  EXPECT_EQ(report.packets_delivered, report.packets_offered);
  EXPECT_EQ(report.flows_served, report.flows_admitted);
  // The blackout actually cost something: retransmissions happened.
  EXPECT_GT(report.transmissions, report.packets_delivered);
  // And the slowest flow's wall time spans the scripted outage.
  EXPECT_GE(report.elapsed_max_s, 0.001);
}

TEST(TrafficEngine, SelectiveRepeatBeatsStopAndWait) {
  TrafficConfig config = small_config();
  config.faults.outages.scripted.push_back({0, 0.0, 0.0005});
  config.faults.outages.scripted.push_back({1, 0.0002, 0.0005});
  config.arq.max_attempts_per_packet = 1 << 20;
  config.packets_per_flow = 32;

  TrafficConfig sr_config = config;
  sr_config.mode = ArqMode::kSelectiveRepeat;
  TrafficConfig sw_config = config;
  sw_config.mode = ArqMode::kStopAndWait;
  const TrafficReport sr = TrafficEngine(sr_config).run();
  const TrafficReport sw = TrafficEngine(sw_config).run();

  EXPECT_EQ(sr.packets_delivered, sr.packets_offered);
  EXPECT_EQ(sw.packets_delivered, sw.packets_offered);
  // Same offered load, same outages: the window pays for itself.
  EXPECT_GT(sr.goodput_total_bps, sw.goodput_total_bps);
}

TEST(TrafficEngine, SeedMovesTheReport) {
  TrafficConfig config = small_config();
  const TrafficReport a = TrafficEngine(config).run();
  config.seed = 34;
  const TrafficReport b = TrafficEngine(config).run();
  EXPECT_NE(fingerprint(a), fingerprint(b));
}

/// Expects construction to throw std::invalid_argument naming `field`.
void expect_rejected(const TrafficConfig& config, const std::string& field) {
  try {
    const TrafficEngine engine(config);
    ADD_FAILURE() << "accepted an invalid " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(TrafficEngine, RejectsNegativeFlowCount) {
  TrafficConfig config = small_config();
  config.flows = -1;
  EXPECT_THROW(TrafficEngine{config}, std::invalid_argument);
}

TEST(TrafficEngine, RejectsNegativePacketsPerFlow) {
  TrafficConfig config = small_config();
  config.packets_per_flow = -1;
  EXPECT_THROW(TrafficEngine{config}, std::invalid_argument);
}

TEST(TrafficEngine, RejectsAnInvalidArqConfig) {
  // Checked even in stop-and-wait mode, which overrides the window.
  TrafficConfig config = small_config();
  config.mode = ArqMode::kStopAndWait;
  config.arq.window = 0;
  EXPECT_THROW(TrafficEngine{config}, std::invalid_argument);
}

TEST(TrafficEngine, RejectsAnInvalidLayout) {
  TrafficConfig config = small_config();
  config.layout.readers = 0;
  EXPECT_THROW(TrafficEngine{config}, std::invalid_argument);
  config = small_config();
  config.layout.tags = -5;
  EXPECT_THROW(TrafficEngine{config}, std::invalid_argument);
}

TEST(TrafficEngine, RejectsNegativeDiscoveryEpochs) {
  TrafficConfig config = small_config();
  config.discovery_epochs = -1;
  expect_rejected(config, "discovery_epochs");
}

TEST(TrafficEngine, RejectsANonPositiveEpochDuration) {
  for (const double duration : {0.0, -0.05, kNaN, kInf}) {
    TrafficConfig config = small_config();
    config.epoch_duration_s = duration;
    expect_rejected(config, "epoch_duration_s");
  }
}

TEST(TrafficEngine, RejectsAnEpochDurationItsDiscoveryPassWouldReject) {
  // Finite on its own, but the discovery pass's run length (3 * max / 2)
  // or a mover's step (1.5 * max / 1.2) overflows; the error names this
  // config, not the fleet's.
  const double max = std::numeric_limits<double>::max();
  for (const auto& [epochs, duration] :
       {std::pair{3, max / 2.0}, std::pair{1, max / 1.2}}) {
    TrafficConfig config = small_config();
    config.discovery_epochs = epochs;
    config.epoch_duration_s = duration;
    expect_rejected(config, "TrafficConfig::epoch_duration_s");
  }
  // Without discovery no fleet runs, so the duration only has to be
  // finite and positive.
  TrafficConfig config = small_config();
  config.discovery_epochs = 0;
  config.epoch_duration_s = max;
  EXPECT_NO_THROW(TrafficEngine{config});
}

TEST(TrafficEngine, RejectsAnOutOfRangeFaultScheduleByName) {
  const std::vector<
      std::pair<std::string, std::function<void(fault::FaultSchedule&)>>>
      cases = {
          {"faults.outages.rate_hz",
           [](fault::FaultSchedule& f) { f.outages.rate_hz = kNaN; }},
          {"faults.outages.scripted[0].reader",
           [](fault::FaultSchedule& f) {
             f.outages.scripted = {{-1, 0.0, 0.001}};
           }},
          {"faults.outages.scripted[1].reader must be < layout.readers",
           [](fault::FaultSchedule& f) {
             // small_config() has two readers.
             f.outages.scripted = {{1, 0.0, 0.001}, {2, 0.0, 0.001}};
           }},
          {"faults.brownouts.affected_fraction",
           [](fault::FaultSchedule& f) {
             f.brownouts.affected_fraction = -0.5;
           }},
          {"faults.blockage.block_probability",
           [](fault::FaultSchedule& f) {
             f.blockage.block_probability = kNaN;
           }},
          {"faults.drift.sigma_ppm",
           [](fault::FaultSchedule& f) { f.drift.sigma_ppm = -5.0; }},
      };
  for (const auto& [field, corrupt] : cases) {
    TrafficConfig config = small_config();
    config.faults = fault::FaultSchedule::chaos(0.5);
    corrupt(config.faults);
    expect_rejected(config, "TrafficConfig::" + field);
  }
  TrafficConfig config = small_config();
  config.faults = fault::FaultSchedule::chaos(1.0);
  config.faults.outages.scripted = {{0, 0.0, 0.001}, {1, 0.0, 0.001}};
  EXPECT_NO_THROW(TrafficEngine{config});
}

/// What `run` added to `hist`: the state after minus the state before.
obs::Histogram::Snapshot published_by(obs::Histogram& hist,
                                      const std::function<void()>& run) {
  const obs::Histogram::Snapshot before = hist.snapshot();
  run();
  const obs::Histogram::Snapshot after = hist.snapshot();
  obs::Histogram::Snapshot delta;
  for (std::size_t b = 0; b < delta.buckets.size(); ++b) {
    delta.buckets[b] = after.buckets[b] - before.buckets[b];
  }
  delta.count = after.count - before.count;
  delta.sum = after.sum - before.sum;
  delta.rejected = after.rejected - before.rejected;
  return delta;
}

void expect_same_state(const obs::Histogram::Snapshot& got,
                       const obs::Histogram::Snapshot& want) {
  EXPECT_GT(want.count, 0u);
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.sum, want.sum);
  EXPECT_EQ(got.rejected, want.rejected);
  EXPECT_EQ(got.fingerprint(), want.fingerprint());
}

/// The latency percentiles equal sort-then-interpolate over the pooled
/// latencies, and the published goodput and latency histograms equal one
/// record() per value.
void expect_exact_aggregation(const TrafficConfig& config,
                              TrafficReport& report) {
  obs::Histogram& goodput_hist =
      obs::Registry::instance().histogram("net.traffic.flow_goodput_kbps");
  obs::Histogram& latency_hist =
      obs::Registry::instance().histogram("net.traffic.latency_us");
  obs::Histogram::Snapshot latency_delta;
  const obs::Histogram::Snapshot goodput_delta =
      published_by(goodput_hist, [&] {
        latency_delta = published_by(
            latency_hist, [&] { report = TrafficEngine(config).run(); });
      });

  std::vector<double> pooled;
  obs::Histogram one_goodput;
  obs::Histogram one_latency;
  for (const FlowResult& flow : report.per_flow) {
    one_goodput.record(static_cast<std::uint64_t>(flow.goodput_bps / 1e3));
    for (const double latency_s : flow.arq.delivery_latency_s) {
      pooled.push_back(latency_s);
      one_latency.record(static_cast<std::uint64_t>(latency_s * 1e6));
    }
  }
  ASSERT_FALSE(pooled.empty());
  std::sort(pooled.begin(), pooled.end());
  EXPECT_EQ(report.latency_p50_s, obs::percentile_sorted(pooled, 50.0));
  EXPECT_EQ(report.latency_p95_s, obs::percentile_sorted(pooled, 95.0));
  EXPECT_EQ(report.latency_p99_s, obs::percentile_sorted(pooled, 99.0));
  if constexpr (obs::kObsEnabled) {
    expect_same_state(goodput_delta, one_goodput.snapshot());
    expect_same_state(latency_delta, one_latency.snapshot());
  }
}

TEST(TrafficEngine, AggregationIsExact) {
  TrafficConfig config = small_config();
  config.faults = fault::FaultSchedule::chaos(0.5);
  TrafficReport report;
  expect_exact_aggregation(config, report);
}

TEST(TrafficEngine, GroupedAggregationIsExactAtEveryThreadCount) {
  // More than 2^15 deliveries: the percentile keys are 16 bits wide, the
  // latencies split into value-count groups that cut flows apart, and 3
  // threads share the groups unevenly.
  TrafficConfig config = small_config();
  config.faults = fault::FaultSchedule::chaos(0.5);
  config.flows = 160;
  config.packets_per_flow = 256;
  std::vector<std::uint64_t> digests;
  for (const int threads : {1, 2, 3, 4}) {
    SCOPED_TRACE(threads);
    config.threads = threads;
    TrafficReport report;
    expect_exact_aggregation(config, report);
    EXPECT_GT(report.packets_delivered, long{1} << 15);
    digests.push_back(fingerprint(report));
  }
  for (const std::uint64_t digest : digests) EXPECT_EQ(digest, digests[0]);
}

TEST(TrafficEngine, ZeroFlowsYieldEmptyReport) {
  TrafficConfig config = small_config();
  config.flows = 0;
  const TrafficReport report = TrafficEngine(config).run();
  EXPECT_EQ(report.flows_admitted, 0);
  EXPECT_EQ(report.packets_offered, 0);
  EXPECT_TRUE(report.per_flow.empty());
}

}  // namespace
}  // namespace mmtag::net
