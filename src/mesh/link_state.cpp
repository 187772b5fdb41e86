#include "src/mesh/link_state.hpp"

#include <algorithm>
#include <cassert>

namespace mmtag::mesh {

namespace {

bool is_live(const std::vector<std::uint8_t>& live, int node) {
  return live.empty() || live[static_cast<std::size_t>(node)] != 0;
}

}  // namespace

LinkStateProtocol::LinkStateProtocol(const MeshTopology* topology)
    : topology_(topology),
      db_(topology->nodes(), std::vector<Lsa>(topology->nodes())),
      was_live_(topology->nodes(), 1) {
  assert(topology_ != nullptr);
}

int LinkStateProtocol::converge(const std::vector<std::uint8_t>& live) {
  const std::size_t n = topology_->nodes();
  assert(live.empty() || live.size() == n);

  // Restart rule: a node that was down and is back lost its LSA store.
  for (std::size_t v = 0; v < n; ++v) {
    const bool up = is_live(live, static_cast<int>(v));
    if (up && was_live_[v] == 0) {
      std::fill(db_[v].begin(), db_[v].end(), Lsa{});
    }
    was_live_[v] = up ? 1 : 0;
  }

  // Origination: every live node senses its live symmetric neighbors
  // (hello exchange — link sensing is local and immediate) and bumps its
  // own LSA seq when the set changed or the entry is missing.
  for (std::size_t v = 0; v < n; ++v) {
    if (!is_live(live, static_cast<int>(v))) continue;
    std::vector<int> now;
    for (const MeshLink& link : topology_->neighbors(static_cast<int>(v))) {
      if (is_live(live, link.to)) now.push_back(link.to);
    }
    Lsa& own = db_[v][v];
    if (own.seq == 0 || own.neighbors != now) {
      ++own.seq;
      own.neighbors = std::move(now);
    }
  }

  // Flooding: one round moves every fresher LSA one hop. A round that
  // adopts nothing ends the flood; the round count is the component's
  // LSA radius for this epoch.
  int rounds = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    // Snapshot sender databases so one round moves information exactly
    // one hop (no intra-round shortcuts through low-id nodes).
    const std::vector<std::vector<Lsa>> before = db_;
    for (std::size_t v = 0; v < n; ++v) {
      if (!is_live(live, static_cast<int>(v))) continue;
      for (const MeshLink& link : topology_->neighbors(static_cast<int>(v))) {
        if (!is_live(live, link.to)) continue;
        const auto peer = static_cast<std::size_t>(link.to);
        for (std::size_t origin = 0; origin < n; ++origin) {
          const Lsa& theirs = before[v][origin];
          Lsa& mine = db_[peer][origin];
          if (theirs.seq > mine.seq) {
            mine = theirs;
            ++lsa_transmissions_;
            changed = true;
          }
        }
      }
    }
    if (changed) ++rounds;
  }
  return rounds;
}

bool LinkStateProtocol::databases_agree(int a, int b) const {
  const auto& da = db_[static_cast<std::size_t>(a)];
  const auto& dbv = db_[static_cast<std::size_t>(b)];
  // An origin with no entry has seq 0 and no neighbors on both sides.
  for (std::size_t origin = 0; origin < da.size(); ++origin) {
    if (da[origin].seq != dbv[origin].seq ||
        da[origin].neighbors != dbv[origin].neighbors) {
      return false;
    }
  }
  return true;
}

std::vector<std::vector<MeshLink>> LinkStateProtocol::believed_topology(
    int node) const {
  const std::size_t n = topology_->nodes();
  const auto& db = db_[static_cast<std::size_t>(node)];
  std::vector<std::vector<MeshLink>> adj(n);
  for (std::size_t from = 0; from < n; ++from) {
    if (db[from].seq == 0) continue;
    for (const int to : db[from].neighbors) {
      const auto t = static_cast<std::size_t>(to);
      // Symmetric-link rule: both endpoints must advertise each other.
      if (db[t].seq == 0) continue;
      if (!std::binary_search(db[t].neighbors.begin(),
                              db[t].neighbors.end(),
                              static_cast<int>(from))) {
        continue;
      }
      const MeshLink* link = topology_->find_link(static_cast<int>(from), to);
      assert(link != nullptr);  // Advertised edges exist in the topology.
      adj[from].push_back(*link);
    }
  }
  return adj;
}

}  // namespace mmtag::mesh
