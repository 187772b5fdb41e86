// Hop-by-hop forwarding plane: net::Packet buffers over the reader mesh.
//
// This is the data path of the backhaul: a reader drains its cell's
// inventory as mesh frames — a net::PacketPool slot with the payload
// appended and a 16-byte MeshHeader *prepended into the reserved headroom*
// (zero copy, the payload bytes never move) — and every hop is an event on
// a mac::EventQueue: per-directed-link FIFO serialization at the link's
// Shannon capacity plus a fixed per-hop processing overhead.
//
// Forwarding is table-driven and hop-by-hop (each node consults its OWN
// RouteTable for the header's destination gateway), with the failure
// handling the tentpole is about: when the primary next hop is dead — a
// fault epoch took the reader down and the link-state flood has not
// reconverged yet — the node shifts the packet to its first precomputed
// K-alternate whose next hop is alive (a reroute), falling back to its
// best reachable gateway when the original target is gone entirely.
// Residual loops from stale-state detours are bounded by the header TTL.
// Pool exhaustion on send is a *counted, graceful drop* (mesh.dropped.pool
// + net.pool.exhausted), never silent divergence.
//
// Determinism: the plane runs on the coordinating thread; the event queue
// breaks timestamp ties by insertion sequence; every table rebuild walks
// nodes in ascending id. A given (topology, live-mask history, offered
// traffic) always produces bit-identical MeshStats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/mac/event_queue.hpp"
#include "src/mesh/link_state.hpp"
#include "src/mesh/routing.hpp"
#include "src/mesh/topology.hpp"
#include "src/net/packet.hpp"

namespace mmtag::mesh {

/// On-wire mesh header, prepended into a packet's headroom (little-endian,
/// fixed 16 bytes).
struct MeshHeader {
  static constexpr std::uint8_t kVersion = 1;
  static constexpr std::size_t kWireBytes = 16;
  /// Header flag: the packet left its primary path at least once.
  static constexpr std::uint16_t kFlagRerouted = 0x0001;

  std::uint8_t version = kVersion;
  std::uint8_t ttl = 16;
  std::uint16_t src = 0;    ///< Originating reader.
  std::uint16_t dst = 0;    ///< Destination gateway reader.
  std::uint16_t flags = 0;
  std::uint32_t seq = 0;    ///< Per-source sequence number.
  std::uint32_t epoch = 0;  ///< Topology epoch at origination.

  /// Prepend this header into `packet`'s headroom. False when the
  /// headroom is short (packet unchanged).
  bool encode_prepend(net::Packet& packet) const;
  /// Parse the header at the front of `packet` without consuming it.
  /// False on short packets or version mismatch.
  static bool decode(const net::Packet& packet, MeshHeader* out);
  /// Strip a decoded header off the front (returns it to headroom).
  static bool strip(net::Packet& packet);
};

struct ForwardingConfig {
  RoutingConfig routing;
  /// Initial header TTL (bounds stale-state detour loops).
  int ttl = 16;
  /// Consult K-alternates when the primary next hop is dead. Off = the
  /// no-failover baseline: the packet is dropped where the primary dies.
  bool failover = true;
  /// Rebuild route tables from the link-state databases after each
  /// epoch's convergence. Off freezes the tables built at construction
  /// (the static-routing strawman benches compare against).
  bool reconverge = true;
};

/// Aggregate forwarding observables; all totals over the network lifetime.
struct MeshStats {
  std::uint64_t offered = 0;          ///< send() calls accepted to the wire.
  std::uint64_t delivered = 0;        ///< Reached their gateway.
  std::uint64_t delivered_local = 0;  ///< Source was its own gateway.
  std::uint64_t dropped_pool = 0;     ///< PacketPool dry at send.
  std::uint64_t dropped_no_route = 0; ///< No usable next hop / gateway.
  std::uint64_t dropped_ttl = 0;      ///< TTL expired (stale-state loop).
  std::uint64_t reroutes = 0;         ///< Shifts off the primary next hop.
  std::uint64_t rerouted_delivered = 0;  ///< Deliveries that took >= 1 shift.
  std::uint64_t hops = 0;             ///< Link crossings of delivered pkts.
  std::uint64_t payload_bytes_delivered = 0;
  int topology_epochs = 0;
  int convergence_rounds = 0;         ///< Summed link-state flood rounds.
  std::uint64_t lsa_transmissions = 0;

  double latency_p50_s = 0.0;  ///< Delivery latency percentiles (pooled).
  double latency_p95_s = 0.0;
  double latency_p99_s = 0.0;
  double stretch_mean = 1.0;   ///< Delivered path cost / oracle best cost.
  double stretch_max = 1.0;
  double link_util_mean = 0.0; ///< Busy fraction across directed links.
  double link_util_max = 0.0;

  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_pool + dropped_no_route + dropped_ttl;
  }
  [[nodiscard]] double delivery_ratio() const {
    const std::uint64_t total = offered + dropped_pool;
    return total > 0 ? static_cast<double>(delivered) /
                           static_cast<double>(total)
                     : 1.0;
  }
};

/// FNV-1a digest over every MeshStats field — the bit-identity check the
/// mesh determinism tests and bench_m1_mesh compare across thread counts.
[[nodiscard]] std::uint64_t fingerprint(const MeshStats& stats);

/// The mesh network: link-state protocol + per-node route tables + the
/// event-driven forwarding plane, against one static MeshTopology.
class MeshNetwork {
 public:
  /// `topology` and `pool` must outlive the network. Construction runs the
  /// initial link-state convergence over the full topology and builds
  /// every node's route table from its own converged database.
  MeshNetwork(const MeshTopology* topology, ForwardingConfig config,
              net::PacketPool* pool);

  /// Start a topology epoch: `live` (empty = all up) gates which readers
  /// forward and which links exist for THIS epoch's traffic. Tables stay
  /// as last converged — stale until reconverge() — which is exactly when
  /// failover alternates earn their keep.
  void begin_epoch(const std::vector<std::uint8_t>& live);

  /// Offer one payload of `payload_bytes` from reader `src` at absolute
  /// time `at_s` on `queue`. Returns false on the counted graceful drops
  /// (pool dry, no route, source dead). Call between begin_epoch and the
  /// queue drain.
  bool send(mac::EventQueue& queue, int src, std::size_t payload_bytes,
            double at_s);

  /// Run the link-state protocol on the current live mask and rebuild the
  /// live nodes' route tables from their databases. Call after the
  /// epoch's queue has drained. No-op when config().reconverge is false
  /// (the protocol still floods; tables just stay frozen).
  void reconverge();

  /// Close out and return totals. `horizon_s` is the wall time link
  /// utilization is normalized by.
  [[nodiscard]] MeshStats finish(double horizon_s);

  [[nodiscard]] const ForwardingConfig& config() const { return config_; }
  [[nodiscard]] const MeshTopology& topology() const { return *topology_; }
  [[nodiscard]] const RouteTable& table(int node) const {
    return tables_[static_cast<std::size_t>(node)];
  }
  /// Live readers reachable to a gateway under the CURRENT epoch's mask —
  /// what FleetConfig::backhaul_reachable forwards to the coordinator.
  [[nodiscard]] std::vector<std::uint8_t> reachable() const {
    return topology_->gateway_reachable(live_);
  }
  /// In-flight frames (0 once the epoch's queue drained).
  [[nodiscard]] std::size_t in_flight() const { return in_flight_.size(); }

 private:
  struct InFlight {
    net::Packet packet;
    MeshHeader header;
    int at_node = 0;
    int came_from = -1;
    double sent_s = 0.0;
    double oracle_cost = 0.0;  ///< Best live-graph cost at origination.
    double walked_cost = 0.0;
  };

  [[nodiscard]] bool node_live(int node) const {
    return live_.empty() || live_[static_cast<std::size_t>(node)] != 0;
  }
  void rebuild_tables(bool only_live);
  void refresh_oracle();
  /// Global index of directed link from -> to in topology links() order.
  [[nodiscard]] std::size_t link_index(int from, int to) const;
  /// Process the frame keyed `id` arriving at its current node at `at_s`.
  void arrive(mac::EventQueue& queue, std::uint32_t id, double at_s);
  /// Pick the next hop at `node` toward `header.dst`; -1 = no usable hop.
  /// Sets `*rerouted` when an alternate or gateway fallback was taken.
  [[nodiscard]] int next_hop(int node, int came_from, MeshHeader& header,
                             bool* rerouted) const;
  void transmit(mac::EventQueue& queue, std::uint32_t id, int from, int to,
                double at_s);
  void drop(std::uint32_t id, std::uint64_t MeshStats::*counter);

  const MeshTopology* topology_;
  ForwardingConfig config_;
  net::PacketPool* pool_;
  LinkStateProtocol protocol_;
  std::vector<RouteTable> tables_;
  std::vector<std::uint8_t> live_;
  /// Prefix sum of out-degrees: neighbors(v)[j] is directed link
  /// link_offset_[v] + j in topology links() order.
  std::vector<std::size_t> link_offset_;
  /// Oracle shortest cost node -> nearest live gateway (path-stretch
  /// denominator); < 0 when unreachable.
  std::vector<double> oracle_cost_;
  /// Per directed link (topology links() order): serializer busy-until
  /// and cumulative busy seconds.
  std::vector<double> link_busy_until_s_;
  std::vector<double> link_busy_s_;
  std::unordered_map<std::uint32_t, InFlight> in_flight_;
  std::uint32_t next_id_ = 0;
  std::uint32_t next_seq_ = 0;
  MeshStats stats_;
  std::vector<double> latencies_s_;
  std::vector<double> stretches_;
};

}  // namespace mmtag::mesh
