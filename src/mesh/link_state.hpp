// OLSR-style link-state dissemination over the reader backhaul.
//
// Routing needs every reader to know the topology, and in a real mesh that
// knowledge is *disseminated*, not teleported: each node originates a
// sequence-numbered link-state advertisement (LSA) describing its live
// neighbor set, and LSAs flood hop by hop. This module models that honestly
// — per-node LSA databases, seq-number freshness rules, one flooding round
// per hop — because the convergence delay is what the failover story is
// about: until the flood completes, nodes route on stale state and the
// forwarding plane's precomputed alternates are the only thing keeping
// packets alive.
//
// Epoch discipline: converge(live) starts a topology epoch. Nodes that
// died keep their (now stale) databases but do not participate; nodes that
// restarted come back amnesiac (a power-cycled reader has no LSA store)
// and relearn the component from its flood. All iteration is in ascending
// node id, so a given (topology, live-mask history) always produces the
// same databases, floods and round counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/mesh/topology.hpp"

namespace mmtag::mesh {

/// One origin's advertisement: "these are my live symmetric neighbors".
struct Lsa {
  /// Freshness; higher wins. 0 = the database holds no entry for this
  /// origin (origination starts at 1).
  std::uint32_t seq = 0;
  std::vector<int> neighbors;  ///< Ascending reader ids.
};

class LinkStateProtocol {
 public:
  /// `topology` must outlive the protocol. Databases start empty; the
  /// first converge() floods the initial topology.
  explicit LinkStateProtocol(const MeshTopology* topology);

  /// Start a topology epoch against `live` (empty = all up) and flood
  /// until every live node's database stops changing. Returns the number
  /// of flooding rounds (== the live component's LSA radius; 0 when
  /// nothing changed). Restarted nodes (dead at the previous converge,
  /// live now) are wiped first.
  int converge(const std::vector<std::uint8_t>& live);

  /// LSA transmissions across all floods (one per link crossing).
  [[nodiscard]] std::uint64_t lsa_transmissions() const {
    return lsa_transmissions_;
  }

  /// True when `a` and `b` hold identical databases — converged peers in
  /// one component must agree (the regression the convergence tests pin).
  [[nodiscard]] bool databases_agree(int a, int b) const;

  /// The topology as `node` believes it: adjacency restricted to edges
  /// both endpoints advertise (symmetric-link rule). Nodes `node` has no
  /// LSA for contribute nothing. Edge lists are ascending by neighbor id
  /// and carry the static topology's link costs.
  [[nodiscard]] std::vector<std::vector<MeshLink>> believed_topology(
      int node) const;

 private:
  const MeshTopology* topology_;
  /// db_[node][origin]: node's copy of origin's LSA.
  std::vector<std::vector<Lsa>> db_;
  std::vector<std::uint8_t> was_live_;
  std::uint64_t lsa_transmissions_ = 0;
};

}  // namespace mmtag::mesh
