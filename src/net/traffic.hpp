// iperf-style traffic engine: thousands of concurrent flows over a fleet.
//
// The paper's pitch is batteryless *networking* at gigabit speeds; a
// network is judged under load, not per link. This engine composes every
// layer below it into that experiment: a deploy layout is discovered by
// the FleetSimulator (flows are only admitted to tags the inventory
// actually read), each admitted flow runs a pool-backed SR-ARQ session
// (sr_arq.hpp) over its tag's ray-traced link budget, rate adaptation
// (rate_control.hpp) retunes the modulation tier on the block-ACK
// history, and a fault schedule gates the channel mid-flow (reader
// outages zero it, Gilbert-Elliott blockage bursts attenuate it). Out
// come the metrics an iperf harness would print — per-flow and aggregate
// goodput, Jain fairness across flows, pooled delivery-latency
// percentiles — plus an FNV-1a fingerprint over all of them.
//
// Determinism: every random process is realized from a derive_seed
// stream keyed by purpose (outage timelines) or flow index (blockage
// dwells, channel coins), flows fan out via sim::parallel_monte_carlo,
// and aggregation walks flows in index order — so the report is
// bit-identical at any thread count (DESIGN.md Sec. 7 discipline).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/deploy/layout.hpp"
#include "src/fault/schedule.hpp"
#include "src/net/rate_control.hpp"
#include "src/net/sr_arq.hpp"
#include "src/resil/admission.hpp"
#include "src/sim/parallel.hpp"
#include "src/sim/table.hpp"

namespace mmtag::net {

enum class ArqMode {
  /// Sliding-window selective repeat (sr_arq.hpp).
  kSelectiveRepeat,
  /// Stop-and-wait baseline: the same machinery with the window forced
  /// to 1, so SR-vs-S&W comparisons differ in exactly one variable.
  kStopAndWait,
};

struct TrafficConfig {
  deploy::LayoutConfig layout;
  /// Concurrent flows, assigned round-robin over admitted tags.
  int flows = 1000;
  /// Packets each flow must deliver (its "iperf -n").
  int packets_per_flow = 64;
  ArqMode mode = ArqMode::kSelectiveRepeat;
  /// Window / retry budget / ACK loss / payload size (sr_arq.hpp).
  SrArqConfig arq;
  /// Closed-loop rate adaptation knobs (rate_control.hpp).
  AckRateController::Params rate;
  /// Disable to pin every flow at its open-loop initial tier.
  bool adapt_rate = true;
  /// Inventory epochs of the admission pass; flows only run to tags the
  /// fleet discovered. 0 skips discovery and admits every tag.
  int discovery_epochs = 1;
  double epoch_duration_s = 0.05;
  /// Fault schedule applied to BOTH discovery and the traffic phase:
  /// reader outage timelines zero the channel; blockage bursts attenuate
  /// it per flow. (Brownout/stuck/drift models shape discovery only —
  /// they are epoch-granular tag states, not link processes.)
  fault::FaultSchedule faults;
  /// Traffic-phase window the outage timelines are drawn over [s].
  double horizon_s = 1.0;
  /// Block-ACK on-air payload [bits] (timing only).
  double ack_bits = 64.0;
  /// Manchester chip coding on the air (2 chips/bit), as in the phy.
  bool manchester = true;
  /// Buffer slots backing each flow's in-flight window; fewer slots than
  /// the window throttles it (pool backpressure).
  std::size_t pool_packets = 48;
  /// Watermark admission control (DESIGN.md Sec. 15): when the projected
  /// buffer demand of all flows — min(window, pool_packets) slots each —
  /// would push the configured packet budget past the high watermark, the
  /// lowest-priority flows (class = flow % priority_classes, highest
  /// class index first) are shed down to the low watermark BEFORE they
  /// contend for airtime, and surface in flows_shed plus the
  /// `resil.shed.*` obs counters. Disabled by default: every report is
  /// then bit-identical to the pre-admission engine.
  resil::AdmissionConfig admission{};
  std::uint64_t seed = 1;
  /// Worker threads (<= 0 selects sim::default_thread_count()).
  int threads = 0;

  /// Throws std::invalid_argument naming the first out-of-range field
  /// (including those of `layout` and `arq`).
  void validate() const;
};

/// One flow's outcome.
struct FlowResult {
  int flow = 0;
  std::size_t tag = 0;  ///< Tag index in the layout.
  int reader = 0;       ///< Serving cell.
  double received_power_dbm = -300.0;
  double initial_rate_bps = 0.0;
  double final_rate_bps = 0.0;
  int rate_switches = 0;
  SrArqResult arq;
  double goodput_bps = 0.0;
  /// Load-shed by admission control before transmitting anything.
  bool shed = false;
};

/// Aggregate report, merged in flow order.
struct TrafficReport {
  int flows_offered = 0;
  int flows_admitted = 0;  ///< Mapped to a discovered tag and not shed.
  int flows_shed = 0;      ///< Load-shed by admission control.
  int flows_served = 0;    ///< Delivered at least one packet.
  double discovery_coverage = 1.0;
  long packets_offered = 0;
  long packets_delivered = 0;
  long packets_dropped = 0;
  long transmissions = 0;
  long duplicate_receives = 0;
  long pool_stalls = 0;
  int rate_switches = 0;
  double goodput_total_bps = 0.0;
  double goodput_mean_bps = 0.0;  ///< Mean over admitted flows.
  double jain = 0.0;              ///< Fairness of per-flow goodputs.
  double latency_p50_s = 0.0;     ///< Pooled delivery latencies.
  double latency_p95_s = 0.0;
  double latency_p99_s = 0.0;
  double elapsed_max_s = 0.0;  ///< Slowest flow's wall time.
  sim::SweepStats sweep;
  std::vector<FlowResult> per_flow;  ///< Flow order.

  [[nodiscard]] double delivery_ratio() const {
    return packets_offered > 0
               ? static_cast<double>(packets_delivered) /
                     static_cast<double>(packets_offered)
               : 0.0;
  }
};

/// FNV-1a digest over every aggregate observable plus each flow's
/// delivered count and goodput bits. Two runs agree on the whole report
/// iff the digests match — the determinism tests and bench_n1_traffic
/// compare these across thread counts.
[[nodiscard]] std::uint64_t fingerprint(const TrafficReport& report);

/// One-row summary (flows, coverage, goodput, Jain, latency percentiles,
/// drops) for benches and examples.
[[nodiscard]] sim::Table traffic_report_table(const TrafficReport& report);

class TrafficEngine {
 public:
  /// Throws std::invalid_argument when `config` fails validate().
  explicit TrafficEngine(TrafficConfig config);

  /// Deterministic in `config.seed`; independent of `config.threads`.
  [[nodiscard]] TrafficReport run();

  [[nodiscard]] const TrafficConfig& config() const { return config_; }

 private:
  TrafficConfig config_;
};

}  // namespace mmtag::net
