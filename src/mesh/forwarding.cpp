#include "src/mesh/forwarding.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "src/obs/metrics.hpp"
#include "src/obs/stats.hpp"

namespace mmtag::mesh {

namespace {

/// Per-hop processing + MAC overhead [s] on top of serialization.
constexpr double kPerHopOverheadS = 20e-6;
/// Mesh header bytes each hop serializes on top of the frame's payload.
constexpr std::size_t kHeaderBytes = 16;

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
                         std::size_t frame_buffers)
    : topology_(topology),
      config_(config),
      frame_buffers_(frame_buffers),
      protocol_(topology),
      tables_(topology->nodes()),
      link_busy_until_s_(topology->links().size(), 0.0),
      link_busy_s_(topology->links().size(), 0.0) {
  if (config_.ttl < 1) {
    throw std::invalid_argument("ForwardingConfig::ttl must be >= 1");
  }
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
  assert(flights_.empty());  // The previous epoch's queue must be drained.
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
  if (flights_.size() >= frame_buffers_) {
    // Fan-in exceeded the frame buffers: a counted, graceful drop, never
    // a crash or a silent divergence.
    ++stats_.dropped_pool;
    mesh_counter("mesh.dropped.pool").add(1);
    return false;
  }

  const std::uint32_t id = next_id_++;
  InFlight flight;
  flight.payload_bytes = payload_bytes;
  flight.dst = dst;
  flight.ttl = config_.ttl;
  flight.at_node = src;
  flight.sent_s = at_s;
  flight.oracle_cost = oracle_cost_[static_cast<std::size_t>(src)];
  flights_.emplace(id, flight);
  ++stats_.offered;
  mesh_counter("mesh.offered").add(1);
  queue.schedule(at_s, [this, &queue, id, at_s] { arrive(queue, id, at_s); });
  return true;
}

int MeshNetwork::next_hop(int node, int came_from, int* dst,
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
  int next = pick(table.routes(*dst), &shifted);
  if (next >= 0) {
    *rerouted = shifted;
    return next;
  }
  if (!config_.failover) return -1;
  // Gateway fallback: the original target (or every path to it) is gone;
  // re-aim at this node's best reachable gateway.
  const int fallback = table.best_gateway();
  if (fallback >= 0 && fallback != *dst) {
    next = pick(table.routes(fallback), &shifted);
    if (next >= 0) {
      *dst = fallback;
      *rerouted = true;
      return next;
    }
  }
  return -1;
}

void MeshNetwork::arrive(mac::EventQueue& queue, std::uint32_t id,
                         double at_s) {
  const auto it = flights_.find(id);
  assert(it != flights_.end());
  InFlight& flight = it->second;
  const int node = flight.at_node;
  if (topology_->is_gateway(node) && node_live(node)) {
    ++stats_.delivered;
    stats_.hops += static_cast<std::uint64_t>(config_.ttl - flight.ttl);
    stats_.payload_bytes_delivered += flight.payload_bytes;
    if (flight.rerouted) ++stats_.rerouted_delivered;
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
    flights_.erase(it);
    return;
  }
  if (!node_live(node)) {
    drop(id, &MeshStats::dropped_no_route);
    return;
  }
  if (flight.ttl == 0) {
    drop(id, &MeshStats::dropped_ttl);
    return;
  }
  bool rerouted = false;
  const int next = next_hop(node, flight.came_from, &flight.dst, &rerouted);
  if (next < 0) {
    drop(id, &MeshStats::dropped_no_route);
    return;
  }
  if (rerouted) {
    flight.rerouted = true;
    ++stats_.reroutes;
    mesh_counter("mesh.reroutes").add(1);
  }
  --flight.ttl;
  transmit(queue, id, node, next, at_s);
}

void MeshNetwork::transmit(mac::EventQueue& queue, std::uint32_t id, int from,
                           int to, double at_s) {
  InFlight& flight = flights_.at(id);
  // Locate the directed link and its global index (links() is (from, to)
  // lexicographic; adjacency shares that order within a node, so the
  // precomputed out-degree prefix sum gives the index directly).
  const std::size_t index = link_index(from, to);
  const MeshLink* link =
      &topology_->links()[index];
  assert(link->from == from && link->to == to);
  const double tx_s =
      static_cast<double>(flight.payload_bytes + kHeaderBytes) * 8.0 /
          link->capacity_bps +
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
  flights_.erase(id);  // Frees the frame buffer.
}

void MeshNetwork::reconverge() {
  assert(flights_.empty());
  const int rounds = protocol_.converge(live_);
  stats_.convergence_rounds += rounds;
  stats_.lsa_transmissions = protocol_.lsa_transmissions();
  convergence_rounds_metric().record(static_cast<std::uint64_t>(rounds));
  if (config_.failover) rebuild_tables(/*only_live=*/true);
}

MeshStats MeshNetwork::finish(double horizon_s) {
  assert(flights_.empty());
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
