// Unit tests for the graph substrate (S1): ports from edge order, edges,
// BFS metrics.

#include "graph/csr_graph.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace rr::graph {
namespace {

// The path 0-1-...-(n-1), edges in increasing order.
CsrGraph path_edges(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return CsrGraph::from_edges(n, edges);
}

TEST(Graph, EmptyGraphHasNoEdges) {
  const CsrGraph g = CsrGraph::from_edges(5, {});
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.num_arcs(), 0u);
  EXPECT_EQ(g.degree(0), 0u);
}

TEST(Graph, AddEdgeUpdatesBothEndpoints) {
  const CsrGraph g = CsrGraph::from_edges(3, {{0, 1}});
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_EQ(g.neighbor(0, 0), 1u);
  EXPECT_EQ(g.neighbor(1, 0), 0u);
  EXPECT_EQ(g.num_arcs(), 2u);
}

TEST(Graph, PortsFollowInsertionOrder) {
  const CsrGraph g = CsrGraph::from_edges(4, {{0, 1}, {2, 0}, {0, 3}});
  EXPECT_EQ(g.neighbor(0, 0), 1u);
  EXPECT_EQ(g.neighbor(0, 1), 2u);
  EXPECT_EQ(g.neighbor(0, 2), 3u);
}

TEST(Graph, PortToFindsSmallestPort) {
  // Parallel edge: ports 0 and 2 of node 0 both lead to 1.
  const CsrGraph g = CsrGraph::from_edges(4, {{0, 1}, {0, 2}, {0, 1}});
  EXPECT_EQ(g.port_to(0, 1), 0u);
  EXPECT_EQ(g.port_to(0, 2), 1u);
  EXPECT_EQ(g.port_to(1, 0), 0u);
}

TEST(Graph, HasEdge) {
  const CsrGraph g = CsrGraph::from_edges(4, {{1, 2}});
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(3, 99));
}

TEST(Graph, BfsDistancesOnPath) {
  const auto d = path_edges(4).bfs_distances(0);
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], 2u);
  EXPECT_EQ(d[3], 3u);
  const auto split = CsrGraph::from_edges(3, {{0, 1}}).bfs_distances(2);
  EXPECT_EQ(split[0], std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(split[2], 0u);
}

TEST(Graph, ConnectivityDetection) {
  EXPECT_FALSE(CsrGraph::from_edges(4, {{0, 1}, {2, 3}}).is_connected());
  EXPECT_TRUE(
      CsrGraph::from_edges(4, {{0, 1}, {2, 3}, {1, 2}}).is_connected());
}

TEST(Graph, DiameterOfPath) { EXPECT_EQ(path_edges(5).diameter(), 4u); }

TEST(Graph, EccentricityFromEndpointOfPath) {
  const CsrGraph g = path_edges(5);
  EXPECT_EQ(g.eccentricity(0), 4u);
  EXPECT_EQ(g.eccentricity(2), 2u);
}

TEST(GraphDeath, FromEdgesRejectsWhatTheModelExcludes) {
  EXPECT_DEATH(CsrGraph::from_edges(3, {{0, 3}}), "out of range");
  EXPECT_DEATH(CsrGraph::from_edges(3, {{1, 1}}), "self-loops");
  EXPECT_DEATH(CsrGraph::from_edges(3, {{0, 1}, {1, 2}}).eccentricity(3),
               "out of range");
  EXPECT_DEATH(CsrGraph::from_edges(3, {{0, 1}}).diameter(), "connected");
}

}  // namespace
}  // namespace rr::graph
