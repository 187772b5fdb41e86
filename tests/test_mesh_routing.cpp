// Route math (src/mesh/routing): Dijkstra and Yen K-shortest correctness
// on hand-checked graphs, the total tie-break order (lowest reader id
// wins), loop-freedom of alternates, and RouteTable gateway selection.
#include "src/mesh/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace mmtag::mesh {
namespace {

/// Undirected helper: adds the edge in both directions with equal cost.
void add_edge(Adjacency& adj, int u, int v, double cost) {
  MeshLink forward;
  forward.from = u;
  forward.to = v;
  forward.cost = cost;
  MeshLink backward = forward;
  backward.from = v;
  backward.to = u;
  adj[static_cast<std::size_t>(u)].push_back(forward);
  adj[static_cast<std::size_t>(v)].push_back(backward);
}

/// Keep every edge list ascending by neighbor id (the topology invariant
/// routing relies on for determinism).
void sort_edges(Adjacency& adj) {
  for (auto& edges : adj) {
    std::sort(edges.begin(), edges.end(),
              [](const MeshLink& a, const MeshLink& b) { return a.to < b.to; });
  }
}

/// Yen's classic worked example (nodes C=0 D=1 E=2 F=3 G=4 H=5).
Adjacency yen_graph() {
  Adjacency adj(6);
  add_edge(adj, 0, 1, 3.0);  // C-D
  add_edge(adj, 0, 2, 2.0);  // C-E
  add_edge(adj, 1, 3, 4.0);  // D-F
  add_edge(adj, 2, 1, 1.0);  // E-D
  add_edge(adj, 2, 3, 2.0);  // E-F
  add_edge(adj, 2, 4, 3.0);  // E-G
  add_edge(adj, 3, 4, 2.0);  // F-G
  add_edge(adj, 3, 5, 1.0);  // F-H
  add_edge(adj, 4, 5, 2.0);  // G-H
  sort_edges(adj);
  return adj;
}

TEST(RouteOrder, CostThenHopsThenLexicographic) {
  Route cheap{{0, 1, 2}, 1.0};
  Route pricey{{0, 2}, 2.0};
  EXPECT_TRUE(route_less(cheap, pricey));
  EXPECT_FALSE(route_less(pricey, cheap));

  Route short_path{{0, 3}, 2.0};
  EXPECT_TRUE(route_less(short_path, pricey) ||
              route_less(pricey, short_path));  // Total order on distincts.
  Route low_ids{{0, 1, 3}, 2.0};
  Route high_ids{{0, 2, 3}, 2.0};
  EXPECT_TRUE(route_less(low_ids, high_ids));  // Lowest reader id wins.

  Route invalid;
  EXPECT_TRUE(route_less(low_ids, invalid));
  EXPECT_FALSE(route_less(invalid, low_ids));
}

TEST(Dijkstra, HandCheckedCostsAndParents) {
  const Adjacency adj = yen_graph();
  const ShortestPaths sp = dijkstra(adj, 0);
  EXPECT_DOUBLE_EQ(sp.cost[0], 0.0);
  EXPECT_DOUBLE_EQ(sp.cost[1], 3.0);  // C-E-D (2+1) == C-D (3); cost ties.
  EXPECT_DOUBLE_EQ(sp.cost[2], 2.0);  // C-E
  EXPECT_DOUBLE_EQ(sp.cost[3], 4.0);  // C-E-F
  EXPECT_DOUBLE_EQ(sp.cost[4], 5.0);  // C-E-G
  EXPECT_DOUBLE_EQ(sp.cost[5], 5.0);  // C-E-F-H
  EXPECT_EQ(sp.parent[5], 3);
  EXPECT_EQ(sp.parent[3], 2);
  EXPECT_EQ(sp.parent[2], 0);
}

TEST(Dijkstra, UnreachableNodesReportNegativeCost) {
  Adjacency adj(3);
  add_edge(adj, 0, 1, 1.0);
  sort_edges(adj);
  const ShortestPaths sp = dijkstra(adj, 0);
  EXPECT_LT(sp.cost[2], 0.0);
  EXPECT_EQ(sp.parent[2], -1);
  EXPECT_FALSE(shortest_path(adj, 0, 2).valid());
}

TEST(KShortest, YenWorkedExample) {
  const Adjacency adj = yen_graph();
  const std::vector<Route> routes = k_shortest_paths(adj, 0, 5, 3);
  ASSERT_EQ(routes.size(), 3u);
  EXPECT_EQ(routes[0].hops, (std::vector<int>{0, 2, 3, 5}));  // C-E-F-H
  EXPECT_DOUBLE_EQ(routes[0].cost, 5.0);
  // Cost-7 tie (our edges are undirected, so C-D-E-F-H exists too, unlike
  // Yen's directed original): fewer hops ranks C-E-G-H ahead.
  EXPECT_EQ(routes[1].hops, (std::vector<int>{0, 2, 4, 5}));  // C-E-G-H
  EXPECT_DOUBLE_EQ(routes[1].cost, 7.0);
  EXPECT_EQ(routes[2].hops, (std::vector<int>{0, 1, 2, 3, 5}));
  EXPECT_DOUBLE_EQ(routes[2].cost, 7.0);
}

TEST(KShortest, AlternatesAreLoopFreeAndOrdered) {
  const Adjacency adj = yen_graph();
  const std::vector<Route> routes = k_shortest_paths(adj, 0, 5, 8);
  ASSERT_GE(routes.size(), 3u);
  for (std::size_t i = 0; i < routes.size(); ++i) {
    const std::set<int> unique(routes[i].hops.begin(), routes[i].hops.end());
    EXPECT_EQ(unique.size(), routes[i].hops.size()) << "loop in route " << i;
    if (i > 0) {
      EXPECT_TRUE(route_less(routes[i - 1], routes[i]));
    }
  }
}

TEST(KShortest, EqualCostTieGoesToLowestReaderId) {
  // Diamond: 0-1-3 and 0-2-3, identical costs and hop counts.
  Adjacency adj(4);
  add_edge(adj, 0, 1, 1.0);
  add_edge(adj, 0, 2, 1.0);
  add_edge(adj, 1, 3, 1.0);
  add_edge(adj, 2, 3, 1.0);
  sort_edges(adj);
  const std::vector<Route> routes = k_shortest_paths(adj, 0, 3, 2);
  ASSERT_EQ(routes.size(), 2u);
  EXPECT_EQ(routes[0].hops, (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(routes[1].hops, (std::vector<int>{0, 2, 3}));
  // And the Dijkstra parent agrees with the lexicographic winner.
  const ShortestPaths sp = dijkstra(adj, 0);
  EXPECT_EQ(sp.parent[3], 1);
}

TEST(KShortest, DeterministicAcrossRepeatedRuns) {
  const Adjacency adj = yen_graph();
  const std::vector<Route> a = k_shortest_paths(adj, 0, 5, 4);
  const std::vector<Route> b = k_shortest_paths(adj, 0, 5, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].hops, b[i].hops);
    EXPECT_DOUBLE_EQ(a[i].cost, b[i].cost);
  }
}

TEST(RouteTable, PicksBestGatewayWithAlternates) {
  const Adjacency adj = yen_graph();
  // Gateways at D(1) and H(5); from C(0): D costs 3, H costs 5.
  const RouteTable table(adj, 0, {1, 5});
  EXPECT_EQ(table.best_gateway(), 1);
  ASSERT_FALSE(table.routes(5).empty());
  EXPECT_EQ(table.routes(5).front().hops, (std::vector<int>{0, 2, 3, 5}));
  ASSERT_FALSE(table.routes(table.best_gateway()).empty());
  EXPECT_DOUBLE_EQ(table.routes(table.best_gateway()).front().cost, 3.0);
}

TEST(RouteTable, GatewayNodeDrainsItself) {
  const Adjacency adj = yen_graph();
  const RouteTable table(adj, 5, {1, 5});
  EXPECT_EQ(table.best_gateway(), 5);
}

TEST(RouteTable, NoGatewayReachableReportsNone) {
  Adjacency adj(4);
  add_edge(adj, 0, 1, 1.0);
  add_edge(adj, 2, 3, 1.0);  // {2,3} disconnected from {0,1}.
  sort_edges(adj);
  const RouteTable table(adj, 2, {0});
  EXPECT_EQ(table.best_gateway(), -1);
  EXPECT_TRUE(table.routes(table.best_gateway()).empty());
}

}  // namespace
}  // namespace mmtag::mesh
