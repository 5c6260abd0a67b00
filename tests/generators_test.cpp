// Unit tests for topology generators (S2), including the ring/path port
// conventions the engines rely on.

#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include "port_rows.hpp"

namespace rr::graph {
namespace {

TEST(Ring, StructureAndPortConvention) {
  const NodeId n = 7;
  CsrGraph g = ring(n);
  EXPECT_EQ(g.num_nodes(), n);
  EXPECT_EQ(g.num_edges(), n);
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(g.degree(v), 2u);
    // Port 0 = clockwise (v+1), port 1 = anticlockwise (v-1) at EVERY node.
    EXPECT_EQ(g.neighbor(v, 0), (v + 1) % n) << "node " << v;
    EXPECT_EQ(g.neighbor(v, 1), (v + n - 1) % n) << "node " << v;
  }
  EXPECT_EQ(g.diameter(), n / 2);
}

TEST(Path, StructureAndPortConvention) {
  const NodeId n = 6;
  CsrGraph g = path(n);
  EXPECT_EQ(g.num_edges(), n - 1);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(n - 1), 1u);
  for (NodeId v = 1; v + 1 < n; ++v) {
    ASSERT_EQ(g.degree(v), 2u);
    EXPECT_EQ(g.neighbor(v, 0), v + 1);
    EXPECT_EQ(g.neighbor(v, 1), v - 1);
  }
  EXPECT_EQ(g.diameter(), n - 1);
}

TEST(Grid, NodeAndEdgeCounts) {
  CsrGraph g = grid(4, 3);
  EXPECT_EQ(g.num_nodes(), 12u);
  // Horizontal: 3 per row * 3 rows; vertical: 4 per column * 2 = 8.
  EXPECT_EQ(g.num_edges(), 9u + 8u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.diameter(), 3u + 2u);
}

TEST(Torus, IsFourRegular) {
  CsrGraph g = torus(4, 5);
  EXPECT_EQ(g.num_nodes(), 20u);
  EXPECT_EQ(g.num_edges(), 40u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_TRUE(g.is_connected());
}

TEST(Clique, CompleteGraph) {
  CsrGraph g = clique(6);
  EXPECT_EQ(g.num_edges(), 15u);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 5u);
  EXPECT_EQ(g.diameter(), 1u);
}

TEST(Star, CenterHasFullDegree) {
  CsrGraph g = star(8);
  EXPECT_EQ(g.degree(0), 7u);
  for (NodeId v = 1; v < 8; ++v) EXPECT_EQ(g.degree(v), 1u);
  EXPECT_EQ(g.diameter(), 2u);
}

TEST(BinaryTree, HeapLayout) {
  CsrGraph g = binary_tree(7);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_EQ(g.degree(0), 2u);   // root: two children
  EXPECT_EQ(g.degree(1), 3u);   // internal: parent + two children
  EXPECT_EQ(g.degree(6), 1u);   // leaf
  EXPECT_TRUE(g.is_connected());
}

TEST(Hypercube, PortFlipsBit) {
  CsrGraph g = hypercube(4);
  EXPECT_EQ(g.num_nodes(), 16u);
  EXPECT_EQ(g.num_edges(), 32u);
  for (NodeId v = 0; v < 16; ++v) {
    ASSERT_EQ(g.degree(v), 4u);
    for (std::uint32_t p = 0; p < 4; ++p) {
      EXPECT_EQ(g.neighbor(v, p), v ^ (1u << p));
    }
  }
  EXPECT_EQ(g.diameter(), 4u);
}

TEST(Lollipop, CliquePlusTail) {
  CsrGraph g = lollipop(10, 5);
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.num_edges(), 10u + 5u);  // C(5,2) + path of 5 extra nodes
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.degree(9), 1u);
}

TEST(RandomRegular, IsRegularConnectedAndDeterministic) {
  CsrGraph g1 = random_regular(24, 3, 42);
  CsrGraph g2 = random_regular(24, 3, 42);
  EXPECT_EQ(testing::PortRows(g1).rows, testing::PortRows(g2).rows);
  EXPECT_TRUE(g1.is_connected());
  for (NodeId v = 0; v < g1.num_nodes(); ++v) EXPECT_EQ(g1.degree(v), 3u);
  CsrGraph g3 = random_regular(24, 3, 43);
  // Different seed, different graph (w.h.p.).
  EXPECT_NE(testing::PortRows(g1).rows, testing::PortRows(g3).rows);
}

TEST(RandomRegular, NoSelfLoopsOrParallelEdges) {
  CsrGraph g = random_regular(30, 4, 7);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_NE(nbrs[i], v);
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        EXPECT_NE(nbrs[i], nbrs[j]);
      }
    }
  }
}

TEST(ErdosRenyi, ConnectedAndDeterministic) {
  CsrGraph g1 = erdos_renyi(40, 0.2, 11);
  CsrGraph g2 = erdos_renyi(40, 0.2, 11);
  EXPECT_EQ(testing::PortRows(g1).rows, testing::PortRows(g2).rows);
  EXPECT_TRUE(g1.is_connected());
}

}  // namespace
}  // namespace rr::graph
