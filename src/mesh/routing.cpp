#include "src/mesh/routing.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <set>
#include <utility>

namespace mmtag::mesh {

const std::vector<Route> RouteTable::kNoRoutes{};

bool route_less(const Route& a, const Route& b) {
  if (a.valid() != b.valid()) return a.valid();
  if (a.cost != b.cost) return a.cost < b.cost;
  if (a.hops.size() != b.hops.size()) return a.hops.size() < b.hops.size();
  return a.hops < b.hops;  // Lexicographic: lowest reader id wins.
}

ShortestPaths dijkstra(const Adjacency& adj, int src) {
  const std::size_t n = adj.size();
  ShortestPaths out;
  out.cost.assign(n, -1.0);
  out.parent.assign(n, -1);
  assert(src >= 0 && static_cast<std::size_t>(src) < n);

  // (cost, node) min-heap; the node id in the key makes pop order — and
  // with the strict-improvement + lowest-parent rules below, the whole
  // tree — deterministic.
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  best[static_cast<std::size_t>(src)] = 0.0;
  heap.emplace(0.0, src);
  std::vector<std::uint8_t> done(n, 0);

  while (!heap.empty()) {
    const auto [cost, node] = heap.top();
    heap.pop();
    const auto u = static_cast<std::size_t>(node);
    if (done[u] != 0) continue;
    done[u] = 1;
    out.cost[u] = cost;
    for (const MeshLink& link : adj[u]) {
      const auto v = static_cast<std::size_t>(link.to);
      const double via = cost + link.cost;
      if (via < best[v]) {
        best[v] = via;
        out.parent[v] = node;
        heap.emplace(via, link.to);
      } else if (via == best[v] && done[v] == 0 && node < out.parent[v]) {
        // Equal-cost predecessor tie: lowest reader id wins.
        out.parent[v] = node;
      }
    }
  }
  return out;
}

Route shortest_path(const Adjacency& adj, int src, int dst) {
  Route route;
  if (src == dst) {
    route.hops.push_back(src);
    return route;
  }
  const ShortestPaths sp = dijkstra(adj, src);
  const auto d = static_cast<std::size_t>(dst);
  if (d >= sp.cost.size() || sp.cost[d] < 0.0) return route;  // Unreachable.
  route.cost = sp.cost[d];
  for (int at = dst; at != -1; at = sp.parent[static_cast<std::size_t>(at)]) {
    route.hops.push_back(at);
  }
  std::reverse(route.hops.begin(), route.hops.end());
  assert(route.hops.front() == src);
  return route;
}

namespace {

/// Shortest path over `adj` with `banned_nodes` removed and the directed
/// edges in `banned_edges` masked — the Yen spur computation.
Route masked_shortest_path(
    const Adjacency& adj, int src, int dst,
    const std::vector<std::uint8_t>& banned_nodes,
    const std::set<std::pair<int, int>>& banned_edges) {
  Adjacency masked(adj.size());
  for (std::size_t u = 0; u < adj.size(); ++u) {
    if (banned_nodes[u] != 0) continue;
    for (const MeshLink& link : adj[u]) {
      if (banned_nodes[static_cast<std::size_t>(link.to)] != 0) continue;
      if (banned_edges.count({static_cast<int>(u), link.to}) != 0) continue;
      masked[u].push_back(link);
    }
  }
  return shortest_path(masked, src, dst);
}

double path_prefix_cost(const Adjacency& adj, const std::vector<int>& hops,
                        std::size_t upto) {
  double cost = 0.0;
  for (std::size_t i = 0; i + 1 <= upto; ++i) {
    const auto u = static_cast<std::size_t>(hops[i]);
    double edge = -1.0;
    for (const MeshLink& link : adj[u]) {
      if (link.to == hops[i + 1]) {
        edge = link.cost;
        break;
      }
    }
    assert(edge >= 0.0);
    cost += edge;
  }
  return cost;
}

}  // namespace

std::vector<Route> k_shortest_paths(const Adjacency& adj, int src, int dst,
                                    std::size_t k) {
  std::vector<Route> result;
  if (k == 0 || src == dst) return result;
  Route first = shortest_path(adj, src, dst);
  if (!first.valid()) return result;
  result.push_back(std::move(first));

  // Candidate pool ordered by route_less; a std::set keeps insertion
  // deduplicated and extraction deterministic.
  auto cmp = [](const Route& a, const Route& b) { return route_less(a, b); };
  std::set<Route, decltype(cmp)> candidates(cmp);

  while (result.size() < k) {
    const Route& prev = result.back();
    // Each hop of the previous best is a spur point: ban the edges every
    // accepted path with the same prefix took, ban the prefix nodes, and
    // find the best deviation.
    for (std::size_t spur = 0; spur + 1 < prev.hops.size(); ++spur) {
      std::vector<int> prefix(prev.hops.begin(),
                              prev.hops.begin() +
                                  static_cast<std::ptrdiff_t>(spur + 1));
      std::set<std::pair<int, int>> banned_edges;
      for (const Route& accepted : result) {
        if (accepted.hops.size() > spur &&
            std::equal(prefix.begin(), prefix.end(),
                       accepted.hops.begin())) {
          if (accepted.hops.size() > spur + 1) {
            banned_edges.insert(
                {accepted.hops[spur], accepted.hops[spur + 1]});
          }
        }
      }
      std::vector<std::uint8_t> banned_nodes(adj.size(), 0);
      for (std::size_t i = 0; i < spur; ++i) {
        banned_nodes[static_cast<std::size_t>(prefix[i])] = 1;
      }
      const Route spur_route = masked_shortest_path(
          adj, prev.hops[spur], dst, banned_nodes, banned_edges);
      if (!spur_route.valid()) continue;
      Route total;
      total.hops = prefix;
      total.hops.insert(total.hops.end(), spur_route.hops.begin() + 1,
                        spur_route.hops.end());
      total.cost = path_prefix_cost(adj, prev.hops, spur) + spur_route.cost;
      candidates.insert(std::move(total));
    }
    // Pop the best candidate not already accepted.
    Route next;
    while (!candidates.empty()) {
      Route top = *candidates.begin();
      candidates.erase(candidates.begin());
      const bool seen =
          std::any_of(result.begin(), result.end(), [&](const Route& r) {
            return r.hops == top.hops;
          });
      if (!seen) {
        next = std::move(top);
        break;
      }
    }
    if (!next.valid()) break;  // Graph ran out of loop-free paths.
    result.push_back(std::move(next));
  }
  return result;
}

RouteTable::RouteTable(const Adjacency& adj, int node,
                       const std::vector<int>& gateways)
    : gateways_(gateways) {
  routes_.reserve(gateways_.size());
  for (const int gw : gateways_) {
    if (gw == node) {
      // A gateway drains itself: a degenerate zero-cost local route.
      Route self;
      self.hops = {node};
      routes_.push_back({std::move(self)});
    } else {
      routes_.push_back(k_shortest_paths(adj, node, gw, kRoutesPerGateway));
    }
  }
  for (std::size_t i = 0; i < gateways_.size(); ++i) {
    if (gateways_[i] == node) {
      best_gateway_ = node;  // Local egress always wins.
      break;
    }
    if (routes_[i].empty()) continue;
    if (best_gateway_ < 0 ||
        route_less(routes_[i].front(), routes(best_gateway_).front())) {
      best_gateway_ = gateways_[i];
    }
  }
}

const std::vector<Route>& RouteTable::routes(int gateway) const {
  for (std::size_t i = 0; i < gateways_.size(); ++i) {
    if (gateways_[i] == gateway) return routes_[i];
  }
  return kNoRoutes;
}

}  // namespace mmtag::mesh
