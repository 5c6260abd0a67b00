// Tests for GraphDescriptor::build_csr: the streamed lattice rows must be
// element-for-element the CSR snapshot of the generator-built Graph, the
// fallback kinds must snapshot build(), and both must reject exactly the
// descriptors build() rejects. Also CsrGraph::is_connected and the
// engines' connectivity gate on the CSR path.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/rotor_router.hpp"
#include "graph/csr_graph.hpp"
#include "graph/descriptor.hpp"

namespace rr::graph {
namespace {

// offsets, arcs and sorted ports of build_csr() equal CsrGraph(build()).
void expect_csr_matches_graph(const std::string& text) {
  SCOPED_TRACE(text);
  const auto d = GraphDescriptor::parse(text);
  ASSERT_TRUE(d.has_value());
  const auto g = d->build();
  ASSERT_TRUE(g.has_value());
  const CsrGraph expected(*g);
  const auto got = d->build_csr();
  ASSERT_TRUE(got.has_value());

  ASSERT_EQ(got->num_nodes(), expected.num_nodes());
  ASSERT_EQ(got->num_arcs(), expected.num_arcs());
  for (NodeId v = 0; v <= expected.num_nodes(); ++v) {
    ASSERT_EQ(got->row_offset(v), expected.row_offset(v)) << "v=" << v;
  }
  ASSERT_NE(got->sorted_ports(), nullptr);
  for (std::size_t i = 0; i < expected.num_arcs(); ++i) {
    ASSERT_EQ(got->arcs()[i], expected.arcs()[i]) << "arc " << i;
    ASSERT_EQ(got->sorted_ports()[i], expected.sorted_ports()[i])
        << "arc " << i;
  }
  EXPECT_TRUE(got->is_connected());
}

TEST(CsrBuild, StreamedRingMatchesGraphBuilder) {
  for (const char* d : {"ring 3", "ring 4", "ring 5", "ring 1024"}) {
    expect_csr_matches_graph(d);
  }
}

TEST(CsrBuild, StreamedTorusMatchesGraphBuilder) {
  // Corner (0,0), the x==0 column, the y==0 row, interior cells, and
  // non-square shapes, up to the benchmark's 512x512 instance.
  for (const char* d : {"torus 3 3", "torus 3 5", "torus 5 3", "torus 4 4",
                        "torus 64 32", "torus 512 512"}) {
    expect_csr_matches_graph(d);
  }
}

TEST(CsrBuild, OtherKindsSnapshotTheBuiltGraph) {
  for (const char* d : {"hypercube 6", "random-regular 128 4 7",
                        "lollipop 12 5"}) {
    expect_csr_matches_graph(d);
  }
}

TEST(CsrBuild, RejectsExactlyWhatBuildRejects) {
  std::vector<GraphDescriptor> bad;
  // Grammatical descriptors whose parameters build() refuses: below the
  // generator minimum, over kMaxArcs, and junk numeric tokens.
  for (const char* text : {"ring 2", "ring 0", "torus 2 5", "torus 5 2",
                           "torus 8192 8193", "ring 99999999999",
                           "torus x 5", "ring 12a", "hypercube 40"}) {
    const auto d = GraphDescriptor::parse(text);
    ASSERT_TRUE(d.has_value()) << text;
    bad.push_back(*d);
  }
  // Hand-built descriptors parse() would refuse.
  bad.push_back(GraphDescriptor{"torus", {"8"}});
  bad.push_back(GraphDescriptor{"moebius", {"8"}});
  bad.push_back(GraphDescriptor{"ring", {"-4"}});
  for (const GraphDescriptor& d : bad) {
    SCOPED_TRACE(d.text());
    EXPECT_FALSE(d.build().has_value());
    EXPECT_FALSE(d.build_csr().has_value());
  }
}

Graph two_components() {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  return g;
}

TEST(CsrBuild, IsConnectedDetectsComponents) {
  EXPECT_FALSE(CsrGraph(two_components()).is_connected());
  Graph g = two_components();
  g.add_edge(1, 2);
  EXPECT_TRUE(CsrGraph(g).is_connected());
  EXPECT_TRUE(CsrGraph().is_connected());
  EXPECT_EQ(CsrGraph().num_nodes(), 0u);
}

TEST(CsrBuildDeath, RotorRouterRejectsDisconnectedCsr) {
  EXPECT_DEATH(core::RotorRouter(CsrGraph(two_components()), {0}),
               "connected");
  EXPECT_DEATH(core::RotorRouter(two_components(), {0}), "connected");
  EXPECT_DEATH(core::RotorRouter(CsrGraph(two_components()), {0}, {}, 2),
               "connected");
}

}  // namespace
}  // namespace rr::graph
