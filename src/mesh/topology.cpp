#include "src/mesh/topology.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/channel/geometry.hpp"

namespace mmtag::mesh {

namespace {

/// SNR of a 1 m backhaul link [dB]; falls off 10*n*log10(d).
constexpr double kSnrAt1mDb = 42.0;
constexpr double kPathlossExponent = 2.1;
/// Backhaul channel bandwidth [Hz]; capacity = B * log2(1 + snr).
constexpr double kBandwidthHz = 100e6;

/// Shannon capacity of one link [bit/s] from its SNR [dB].
double capacity_bps(double snr_db) {
  const double snr = std::pow(10.0, snr_db / 10.0);
  return kBandwidthHz * std::log2(1.0 + snr);
}

}  // namespace

MeshTopology::MeshTopology(const std::vector<core::Pose>& reader_poses,
                           const TopologyConfig& config)
    : nodes_(reader_poses.size()), config_(config) {
  assert(nodes_ > 0);
  for (const int g : config_.gateways) {
    if (g >= 0 && static_cast<std::size_t>(g) < nodes_) {
      gateways_.push_back(g);
    }
  }
  std::sort(gateways_.begin(), gateways_.end());
  gateways_.erase(std::unique(gateways_.begin(), gateways_.end()),
                  gateways_.end());
  if (gateways_.empty()) gateways_.push_back(0);

  adjacency_.resize(nodes_);
  for (std::size_t i = 0; i < nodes_; ++i) {
    for (std::size_t j = 0; j < nodes_; ++j) {
      if (i == j) continue;
      const double d = channel::distance(reader_poses[i].position,
                                         reader_poses[j].position);
      if (d > config_.link.max_range_m) continue;
      // Clamp the near field to the 1 m reference so co-located readers
      // do not produce unbounded SNR.
      const double snr_db =
          kSnrAt1mDb -
          10.0 * kPathlossExponent * std::log10(std::max(d, 1.0));
      if (snr_db < kMinLinkSnrDb) continue;
      MeshLink link;
      link.from = static_cast<int>(i);
      link.to = static_cast<int>(j);
      link.distance_m = d;
      link.snr_db = snr_db;
      link.capacity_bps = capacity_bps(snr_db);
      link.cost = kCostRefBits / link.capacity_bps;
      adjacency_[i].push_back(link);  // j ascending: sorted by neighbor id.
      links_.push_back(link);         // (from, to) lexicographic.
    }
  }
}

bool MeshTopology::is_gateway(int node) const {
  return std::binary_search(gateways_.begin(), gateways_.end(), node);
}

const MeshLink* MeshTopology::find_link(int from, int to) const {
  if (from < 0 || static_cast<std::size_t>(from) >= nodes_) return nullptr;
  for (const MeshLink& link : adjacency_[static_cast<std::size_t>(from)]) {
    if (link.to == to) return &link;
  }
  return nullptr;
}

std::vector<std::uint8_t> MeshTopology::gateway_reachable(
    const std::vector<std::uint8_t>& live) const {
  assert(live.empty() || live.size() == nodes_);
  const auto is_live = [&](int node) {
    return live.empty() || live[static_cast<std::size_t>(node)] != 0;
  };
  std::vector<std::uint8_t> reachable(nodes_, 0);
  std::vector<int> frontier;
  for (const int g : gateways_) {
    if (is_live(g) && reachable[static_cast<std::size_t>(g)] == 0) {
      reachable[static_cast<std::size_t>(g)] = 1;
      frontier.push_back(g);
    }
  }
  // BFS with an ascending-id frontier at every level: the visit order —
  // and therefore any downstream iteration seeded by it — is unique.
  while (!frontier.empty()) {
    std::sort(frontier.begin(), frontier.end());
    std::vector<int> next;
    for (const int node : frontier) {
      for (const MeshLink& link : neighbors(node)) {
        if (!is_live(link.to)) continue;
        std::uint8_t& seen = reachable[static_cast<std::size_t>(link.to)];
        if (seen == 0) {
          seen = 1;
          next.push_back(link.to);
        }
      }
    }
    frontier = std::move(next);
  }
  return reachable;
}

bool MeshTopology::fully_connected() const {
  const std::vector<std::uint8_t> reachable = gateway_reachable({});
  for (const std::uint8_t r : reachable) {
    if (r == 0) return false;
  }
  return true;
}

}  // namespace mmtag::mesh
