// Reader-backhaul topology: the graph the mesh routes over.
//
// A metro deployment is only as good as its backhaul: every ReaderCell's
// inventory has to leave the building over reader-to-reader links, and
// those links exist or not purely by geometry (readers within backhaul
// radio range) and quality (SNR from a log-distance budget). This module
// turns `deploy::layout` reader poses into that graph: per-link SNR,
// Shannon-capped capacity, and a serialization-time link cost the routing
// layer minimizes. Adjacency lists are sorted by neighbor id and link
// enumeration is (from, to) lexicographic, so every downstream traversal
// is deterministic by construction.
//
// The topology itself is static for a run (readers do not move); what
// changes per epoch is the *live* mask realized by src/fault. Reachability
// against that mask — which live readers can still reach a gateway — is
// computed here because both the routing layer and the orphan-reassignment
// fix in deploy::FleetCoordinator need the same answer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/tag.hpp"

namespace mmtag::mesh {

/// Links below this SNR [dB] are not formed (no viable MCS).
inline constexpr double kMinLinkSnrDb = 3.0;

/// Log-distance backhaul link budget: readers are mains-located but the
/// 24 GHz backhaul radio still has finite reach. Links past `max_range_m`
/// or below kMinLinkSnrDb do not exist.
struct MeshLinkModel {
  double max_range_m = 12.0;
};

struct TopologyConfig {
  MeshLinkModel link;
  /// Reader indices with wired egress (inventory sinks). Empty selects
  /// reader 0 — every layout has at least one reader.
  std::vector<int> gateways;
};

/// One directed backhaul link (the graph is symmetric: every link has a
/// mirrored twin).
struct MeshLink {
  int from = 0;
  int to = 0;
  double distance_m = 0.0;
  double snr_db = 0.0;
  double capacity_bps = 0.0;
  /// Serialization time of one reference transfer unit (kCostRefBits) [s]
  /// — the additive metric Dijkstra minimizes. Fast links cost less.
  double cost = 0.0;
};

/// Reference transfer unit behind MeshLink::cost [bits]. The absolute
/// scale cancels out of route *choices*; it only keeps costs in a humane
/// range for tables and logs.
inline constexpr double kCostRefBits = 2048.0;

class MeshTopology {
 public:
  /// Build the backhaul graph over `reader_poses`. Deterministic: the
  /// same poses and config always produce the same links in the same
  /// order. Gateways outside [0, nodes) are discarded; an empty surviving
  /// set falls back to reader 0. Throws std::invalid_argument for an
  /// empty pose list or a `link.max_range_m` that is not finite and > 0.
  MeshTopology(const std::vector<core::Pose>& reader_poses,
               const TopologyConfig& config);

  [[nodiscard]] std::size_t nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<int>& gateways() const { return gateways_; }
  [[nodiscard]] bool is_gateway(int node) const;

  /// Out-links of `node`, sorted by neighbor id.
  [[nodiscard]] const std::vector<MeshLink>& neighbors(int node) const {
    return adjacency_[static_cast<std::size_t>(node)];
  }
  /// Every directed link, (from, to) lexicographic.
  [[nodiscard]] const std::vector<MeshLink>& links() const { return links_; }

  /// The directed link from -> to, or nullptr when none exists.
  [[nodiscard]] const MeshLink* find_link(int from, int to) const;

  /// reachable[r] == 1 iff reader r is live and a path of live readers
  /// connects it to a live gateway (BFS in ascending-id order). A dead
  /// reader is never reachable; a live gateway always is. `live` empty
  /// means every reader is up.
  [[nodiscard]] std::vector<std::uint8_t> gateway_reachable(
      const std::vector<std::uint8_t>& live) const;

  /// True when every node is gateway-reachable with every reader up —
  /// the sanity check benches run before simulating a topology.
  [[nodiscard]] bool fully_connected() const;

 private:
  std::size_t nodes_;
  std::vector<int> gateways_;
  std::vector<MeshLink> links_;
  std::vector<std::vector<MeshLink>> adjacency_;
};

}  // namespace mmtag::mesh
