#include "src/mesh/forwarding.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/obs/metrics.hpp"
#include "src/obs/stats.hpp"

namespace mmtag::mesh {

namespace {

/// Per-hop processing + MAC overhead [s] on top of serialization.
constexpr double kPerHopOverheadS = 20e-6;

void store_le16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v & 0xFF);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}
void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v & 0xFF);
  p[1] = static_cast<std::uint8_t>((v >> 8) & 0xFF);
  p[2] = static_cast<std::uint8_t>((v >> 16) & 0xFF);
  p[3] = static_cast<std::uint8_t>((v >> 24) & 0xFF);
}
std::uint16_t load_le16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

obs::Counter& mesh_counter(const char* name) {
  return obs::Registry::instance().counter(name);
}
obs::Histogram& latency_us_metric() {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("mesh.delivery_latency_us");
  return hist;
}
obs::Histogram& stretch_metric() {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("mesh.path_stretch_x1000");
  return hist;
}
obs::Histogram& link_util_metric() {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("mesh.link.util_ppm");
  return hist;
}
obs::Histogram& convergence_rounds_metric() {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("mesh.convergence_rounds");
  return hist;
}

}  // namespace

bool MeshHeader::encode_prepend(net::Packet& packet) const {
  std::uint8_t* p = packet.prepend(kWireBytes);
  if (p == nullptr) return false;
  p[0] = version;
  p[1] = ttl;
  store_le16(p + 2, src);
  store_le16(p + 4, dst);
  store_le16(p + 6, flags);
  store_le32(p + 8, seq);
  store_le32(p + 12, epoch);
  return true;
}

bool MeshHeader::decode(const net::Packet& packet, MeshHeader* out) {
  if (packet.size() < kWireBytes) return false;
  const std::uint8_t* p = packet.data();
  if (p[0] != kVersion) return false;
  out->version = p[0];
  out->ttl = p[1];
  out->src = load_le16(p + 2);
  out->dst = load_le16(p + 4);
  out->flags = load_le16(p + 6);
  out->seq = load_le32(p + 8);
  out->epoch = load_le32(p + 12);
  return true;
}

bool MeshHeader::strip(net::Packet& packet) {
  if (packet.size() < kWireBytes) return false;
  return packet.consume(kWireBytes);
}

std::uint64_t fingerprint(const MeshStats& stats) {
  obs::Fnv1a hasher;
  hasher.mix_u64(stats.offered);
  hasher.mix_u64(stats.delivered);
  hasher.mix_u64(stats.delivered_local);
  hasher.mix_u64(stats.dropped_pool);
  hasher.mix_u64(stats.dropped_no_route);
  hasher.mix_u64(stats.dropped_ttl);
  hasher.mix_u64(stats.reroutes);
  hasher.mix_u64(stats.rerouted_delivered);
  hasher.mix_u64(stats.hops);
  hasher.mix_u64(stats.payload_bytes_delivered);
  hasher.mix_u64(static_cast<std::uint64_t>(stats.topology_epochs));
  hasher.mix_u64(static_cast<std::uint64_t>(stats.convergence_rounds));
  hasher.mix_u64(stats.lsa_transmissions);
  hasher.mix_double(stats.latency_p50_s);
  hasher.mix_double(stats.latency_p95_s);
  hasher.mix_double(stats.latency_p99_s);
  hasher.mix_double(stats.stretch_mean);
  hasher.mix_double(stats.stretch_max);
  hasher.mix_double(stats.link_util_mean);
  hasher.mix_double(stats.link_util_max);
  return hasher.digest();
}

MeshNetwork::MeshNetwork(const MeshTopology* topology, ForwardingConfig config,
                         net::PacketPool* pool)
    : topology_(topology),
      config_(config),
      pool_(pool),
      protocol_(topology),
      tables_(topology->nodes()),
      link_busy_until_s_(topology->links().size(), 0.0),
      link_busy_s_(topology->links().size(), 0.0) {
  assert(pool_ != nullptr);
  assert(pool_->headroom() >= MeshHeader::kWireBytes);
  assert(config_.ttl > 0 && config_.ttl <= 255);
  const std::size_t n = topology_->nodes();
  link_offset_.resize(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    link_offset_[v + 1] =
        link_offset_[v] + topology_->neighbors(static_cast<int>(v)).size();
  }
  stats_.convergence_rounds += protocol_.converge({});
  rebuild_tables(/*only_live=*/false);
  refresh_oracle();
}

std::size_t MeshNetwork::link_index(int from, int to) const {
  const std::vector<MeshLink>& out = topology_->neighbors(from);
  for (std::size_t j = 0; j < out.size(); ++j) {
    if (out[j].to == to) {
      return link_offset_[static_cast<std::size_t>(from)] + j;
    }
  }
  assert(false && "no directed link from -> to");
  return 0;
}

void MeshNetwork::begin_epoch(const std::vector<std::uint8_t>& live) {
  assert(live.empty() || live.size() == topology_->nodes());
  assert(in_flight_.empty());  // The previous epoch's queue must be drained.
  live_ = live;
  ++stats_.topology_epochs;
  refresh_oracle();
  mesh_counter("mesh.epochs").add(1);
}

void MeshNetwork::rebuild_tables(bool only_live) {
  const std::size_t n = topology_->nodes();
  for (std::size_t v = 0; v < n; ++v) {
    if (only_live && !node_live(static_cast<int>(v))) continue;
    tables_[v] = RouteTable(protocol_.believed_topology(static_cast<int>(v)),
                            static_cast<int>(v), topology_->gateways());
  }
}

void MeshNetwork::refresh_oracle() {
  const std::size_t n = topology_->nodes();
  Adjacency live_adj(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (!node_live(static_cast<int>(v))) continue;
    for (const MeshLink& link : topology_->neighbors(static_cast<int>(v))) {
      if (node_live(link.to)) live_adj[v].push_back(link);
    }
  }
  oracle_cost_.assign(n, -1.0);
  // Links are cost-symmetric (distance is), so distance-from-gateway equals
  // cost-to-gateway; min over the live gateway set.
  for (const int gw : topology_->gateways()) {
    if (!node_live(gw)) continue;
    const ShortestPaths sp = dijkstra(live_adj, gw);
    for (std::size_t v = 0; v < n; ++v) {
      if (sp.cost[v] < 0.0) continue;
      if (oracle_cost_[v] < 0.0 || sp.cost[v] < oracle_cost_[v]) {
        oracle_cost_[v] = sp.cost[v];
      }
    }
  }
}

bool MeshNetwork::send(mac::EventQueue& queue, int src,
                       std::size_t payload_bytes, double at_s) {
  assert(src >= 0 && static_cast<std::size_t>(src) < topology_->nodes());
  if (!node_live(src)) {
    ++stats_.dropped_no_route;
    mesh_counter("mesh.dropped.no_route").add(1);
    return false;
  }
  if (topology_->is_gateway(src)) {
    // Local egress: the inventory leaves over the gateway's wire, no mesh
    // frame needed (and no latency/stretch sample — there was no path).
    ++stats_.offered;
    ++stats_.delivered;
    ++stats_.delivered_local;
    stats_.payload_bytes_delivered += payload_bytes;
    mesh_counter("mesh.offered").add(1);
    mesh_counter("mesh.delivered").add(1);
    return true;
  }
  const int dst = tables_[static_cast<std::size_t>(src)].best_gateway();
  if (dst < 0) {
    ++stats_.dropped_no_route;
    mesh_counter("mesh.dropped.no_route").add(1);
    return false;
  }
  net::Packet packet = pool_->alloc();
  if (!packet) {
    // Fan-in exceeded the pool: a counted, graceful drop (the pool itself
    // bumped net.pool.exhausted), never a crash or a silent divergence.
    ++stats_.dropped_pool;
    mesh_counter("mesh.dropped.pool").add(1);
    return false;
  }
  std::uint8_t* payload = packet.append(payload_bytes);
  assert(payload != nullptr);  // Pool slots are sized for the payload.
  std::memset(payload, 0, payload_bytes);
  MeshHeader header;
  header.ttl = static_cast<std::uint8_t>(config_.ttl);
  header.src = static_cast<std::uint16_t>(src);
  header.dst = static_cast<std::uint16_t>(dst);
  header.seq = next_seq_++;
  header.epoch = static_cast<std::uint32_t>(protocol_.epoch());
  if (payload_bytes >= sizeof(header.seq)) {
    std::memcpy(payload, &header.seq, sizeof(header.seq));
  }
  const bool ok = header.encode_prepend(packet);
  assert(ok);
  (void)ok;

  const std::uint32_t id = next_id_++;
  InFlight flight;
  flight.packet = std::move(packet);
  flight.header = header;
  flight.at_node = src;
  flight.sent_s = at_s;
  flight.oracle_cost = oracle_cost_[static_cast<std::size_t>(src)];
  in_flight_.emplace(id, std::move(flight));
  ++stats_.offered;
  mesh_counter("mesh.offered").add(1);
  queue.schedule(at_s, [this, &queue, id, at_s] { arrive(queue, id, at_s); });
  return true;
}

int MeshNetwork::next_hop(int node, int came_from, MeshHeader& header,
                          bool* rerouted) const {
  *rerouted = false;
  const RouteTable& table = tables_[static_cast<std::size_t>(node)];
  const auto pick = [&](const std::vector<Route>& routes,
                        bool* shifted) -> int {
    const std::size_t limit = config_.failover ? routes.size()
                                               : std::min<std::size_t>(
                                                     routes.size(), 1);
    for (std::size_t k = 0; k < limit; ++k) {
      const Route& route = routes[k];
      if (!route.valid()) continue;
      assert(route.hops.front() == node);
      const int next = route.hops[1];
      if (!node_live(next)) continue;
      if (next == came_from) continue;  // No immediate bounce-back.
      *shifted = k > 0;
      return next;
    }
    return -1;
  };
  bool shifted = false;
  int next = pick(table.routes(header.dst), &shifted);
  if (next >= 0) {
    *rerouted = shifted;
    return next;
  }
  if (!config_.failover) return -1;
  // Gateway fallback: the original target (or every path to it) is gone;
  // re-aim at this node's best reachable gateway.
  const int fallback = table.best_gateway();
  if (fallback >= 0 && fallback != header.dst) {
    next = pick(table.routes(fallback), &shifted);
    if (next >= 0) {
      header.dst = static_cast<std::uint16_t>(fallback);
      *rerouted = true;
      return next;
    }
  }
  return -1;
}

void MeshNetwork::arrive(mac::EventQueue& queue, std::uint32_t id,
                         double at_s) {
  const auto it = in_flight_.find(id);
  assert(it != in_flight_.end());
  InFlight& flight = it->second;
  const int node = flight.at_node;
  if (topology_->is_gateway(node) && node_live(node)) {
    // Delivered. Verify the wire header survived the trip, then strip it.
    MeshHeader wire;
    const bool decoded = MeshHeader::decode(flight.packet, &wire);
    assert(decoded && wire.src == flight.header.src &&
           wire.seq == flight.header.seq);
    (void)decoded;
    (void)wire;
    MeshHeader::strip(flight.packet);
    ++stats_.delivered;
    stats_.hops += static_cast<std::uint64_t>(config_.ttl) -
                   static_cast<std::uint64_t>(flight.header.ttl);
    stats_.payload_bytes_delivered += flight.packet.size();
    if ((flight.header.flags & MeshHeader::kFlagRerouted) != 0) {
      ++stats_.rerouted_delivered;
    }
    const double latency = at_s - flight.sent_s;
    latencies_s_.push_back(latency);
    const double stretch =
        flight.oracle_cost > 0.0
            ? std::max(1.0, flight.walked_cost / flight.oracle_cost)
            : 1.0;
    stretches_.push_back(stretch);
    mesh_counter("mesh.delivered").add(1);
    latency_us_metric().record(latency * 1e6);
    stretch_metric().record(stretch * 1e3);
    in_flight_.erase(it);
    return;
  }
  if (!node_live(node)) {
    drop(id, &MeshStats::dropped_no_route);
    return;
  }
  if (flight.header.ttl == 0) {
    drop(id, &MeshStats::dropped_ttl);
    return;
  }
  bool rerouted = false;
  const int next = next_hop(node, flight.came_from, flight.header, &rerouted);
  if (next < 0) {
    drop(id, &MeshStats::dropped_no_route);
    return;
  }
  if (rerouted) {
    flight.header.flags |= MeshHeader::kFlagRerouted;
    ++stats_.reroutes;
    mesh_counter("mesh.reroutes").add(1);
  }
  --flight.header.ttl;
  // Keep the wire bytes authoritative: strip the stale header, prepend the
  // updated one (both are headroom slides, the payload never moves).
  MeshHeader::strip(flight.packet);
  const bool ok = flight.header.encode_prepend(flight.packet);
  assert(ok);
  (void)ok;
  transmit(queue, id, node, next, at_s);
}

void MeshNetwork::transmit(mac::EventQueue& queue, std::uint32_t id, int from,
                           int to, double at_s) {
  InFlight& flight = in_flight_.at(id);
  // Locate the directed link and its global index (links() is (from, to)
  // lexicographic; adjacency shares that order within a node, so the
  // precomputed out-degree prefix sum gives the index directly).
  const std::size_t index = link_index(from, to);
  const MeshLink* link =
      &topology_->links()[index];
  assert(link->from == from && link->to == to);
  const double tx_s =
      static_cast<double>(flight.packet.size()) * 8.0 / link->capacity_bps +
      kPerHopOverheadS;
  const double start_s = std::max(at_s, link_busy_until_s_[index]);
  const double done_s = start_s + tx_s;
  link_busy_until_s_[index] = done_s;
  link_busy_s_[index] += tx_s;
  flight.walked_cost += link->cost;
  flight.came_from = from;
  flight.at_node = to;
  queue.schedule(done_s,
                 [this, &queue, id, done_s] { arrive(queue, id, done_s); });
}

void MeshNetwork::drop(std::uint32_t id, std::uint64_t MeshStats::*counter) {
  stats_.*counter += 1;
  if (counter == &MeshStats::dropped_ttl) {
    mesh_counter("mesh.dropped.ttl").add(1);
  } else {
    mesh_counter("mesh.dropped.no_route").add(1);
  }
  in_flight_.erase(id);  // Releases the packet slot back to the pool.
}

void MeshNetwork::reconverge() {
  assert(in_flight_.empty());
  const int rounds = protocol_.converge(live_);
  stats_.convergence_rounds += rounds;
  stats_.lsa_transmissions = protocol_.lsa_transmissions();
  convergence_rounds_metric().record(static_cast<std::uint64_t>(rounds));
  if (config_.reconverge) rebuild_tables(/*only_live=*/true);
}

MeshStats MeshNetwork::finish(double horizon_s) {
  assert(in_flight_.empty());
  const std::vector<double> latency =
      latencies_s_.empty()
          ? std::vector<double>(3, 0.0)
          : obs::percentiles({latencies_s_}, {50.0, 95.0, 99.0});
  stats_.latency_p50_s = latency[0];
  stats_.latency_p95_s = latency[1];
  stats_.latency_p99_s = latency[2];
  if (!stretches_.empty()) {
    double sum = 0.0;
    double max = 1.0;
    for (const double s : stretches_) {
      sum += s;
      max = std::max(max, s);
    }
    stats_.stretch_mean = sum / static_cast<double>(stretches_.size());
    stats_.stretch_max = max;
  }
  if (!link_busy_s_.empty() && horizon_s > 0.0) {
    double sum = 0.0;
    double max = 0.0;
    for (const double busy : link_busy_s_) {
      const double util = busy / horizon_s;
      sum += util;
      max = std::max(max, util);
      link_util_metric().record(util * 1e6);
    }
    stats_.link_util_mean = sum / static_cast<double>(link_busy_s_.size());
    stats_.link_util_max = max;
  }
  return stats_;
}

}  // namespace mmtag::mesh
